//! The five-point stencil's bookkeeping, tabulated once per (grid, mask):
//! zonal wrap indices and, per cell, which of the cell and its four
//! neighbours are sea. Every kernel of the crate walks rows of flat
//! slices with these instead of `get(i, j)`, `%` and four mask lookups.

/// The cell itself is sea. Land cells carry no other flag, so
/// `flags == 0` is the land test.
pub(crate) const SEA: u8 = 1;
pub(crate) const EAST: u8 = 2;
pub(crate) const WEST: u8 = 4;
pub(crate) const NORTH: u8 = 8;
pub(crate) const SOUTH: u8 = 16;

#[derive(Debug, Clone)]
pub(crate) struct Stencil {
    nx: usize,
    /// `(i + 1) % nx` and `(i + nx - 1) % nx`.
    pub ie: Vec<usize>,
    pub iw: Vec<usize>,
    /// Per cell, row-major: `SEA` plus one flag per sea neighbour; rows
    /// beyond the grid count as land.
    pub flags: Vec<u8>,
}

impl Stencil {
    pub fn new(nx: usize, ny: usize, mask: &[bool]) -> Self {
        assert_eq!(mask.len(), nx * ny);
        let ie: Vec<usize> = (0..nx).map(|i| (i + 1) % nx).collect();
        let iw: Vec<usize> = (0..nx).map(|i| (i + nx - 1) % nx).collect();
        let mut flags = vec![0u8; nx * ny];
        for j in 0..ny {
            for i in 0..nx {
                let c = j * nx + i;
                if !mask[c] {
                    continue;
                }
                let mut f = SEA;
                if mask[j * nx + ie[i]] {
                    f |= EAST;
                }
                if mask[j * nx + iw[i]] {
                    f |= WEST;
                }
                if j + 1 < ny && mask[c + nx] {
                    f |= NORTH;
                }
                if j > 0 && mask[c - nx] {
                    f |= SOUTH;
                }
                flags[c] = f;
            }
        }
        Stencil { nx, ie, iw, flags }
    }

    /// The sea cells of row `j`, west to east. `j` must be an interior
    /// row (`1..ny - 1`), so that every neighbour index is in range.
    #[inline(always)]
    pub fn row_cells(&self, j: usize) -> impl Iterator<Item = Cell> + '_ {
        let row = j * self.nx;
        (0..self.nx).filter_map(move |i| {
            let c = row + i;
            let fl = self.flags[c];
            (fl != 0).then_some(Cell {
                c,
                e: row + self.ie[i],
                w: row + self.iw[i],
                n: c + self.nx,
                s: c - self.nx,
                fl,
            })
        })
    }
}

/// A sea cell's flat index, its neighbours' and its flags.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cell {
    pub c: usize,
    pub e: usize,
    pub w: usize,
    pub n: usize,
    pub s: usize,
    pub fl: u8,
}

impl Cell {
    #[inline(always)]
    pub fn has(self, side: u8) -> bool {
        self.fl & side != 0
    }

    /// Grid-unit Laplacian of `f`: the sum over sea neighbours (E, W, N,
    /// S) of `f[neighbour] − f[cell]`.
    #[inline(always)]
    pub fn lap(self, f: &[f64]) -> f64 {
        let fc = f[self.c];
        let mut acc = 0.0;
        for (side, nb) in [
            (EAST, self.e),
            (WEST, self.w),
            (NORTH, self.n),
            (SOUTH, self.s),
        ] {
            if self.has(side) {
                acc += f[nb] - fc;
            }
        }
        acc
    }

    /// `f` across the face towards `nb`, or the cell's own value across
    /// a coast (zero gradient).
    #[inline(always)]
    pub fn across(self, f: &[f64], side: u8, nb: usize) -> f64 {
        f[if self.has(side) { nb } else { self.c }]
    }
}
