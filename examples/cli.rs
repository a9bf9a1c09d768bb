//! Command-line values for the examples.

use std::str::FromStr;

/// `value` parsed as a `T`, or `default` when it is absent. A present
/// value that does not parse ends the program with status 2 and a
/// message naming `what` — it never silently runs the default.
pub fn parse_or<T: FromStr>(what: &str, value: Option<&String>, default: T) -> T {
    match value {
        None => default,
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!(
                "error: {what}: cannot parse {s:?} as {}",
                std::any::type_name::<T>()
            );
            std::process::exit(2)
        }),
    }
}
