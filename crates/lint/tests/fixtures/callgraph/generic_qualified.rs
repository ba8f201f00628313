//! A generic driver whose only way into its level's impl is a call
//! qualified by a type parameter: `L::scratch(…)`.

pub trait Level {
    fn scratch(n: usize) -> usize;
}

pub struct Flat;

impl Level for Flat {
    fn scratch(n: usize) -> usize {
        let buf = vec![0u8; n];
        buf.len()
    }
}

/// A fn-level type parameter: the steady-state entry point.
pub fn drive<L: Level>(n: usize) -> usize {
    L::scratch(n)
}

pub struct Driver<L, F>(L, F);

impl<L: Level, F: Fn(usize) -> usize> Driver<L, F> {
    /// An impl-level type parameter, after a `->` in the generic list.
    pub fn run(&self, n: usize) -> usize {
        L::scratch(n)
    }
}

/// A module-qualified call still links to free fns only.
pub fn via_module(n: usize) -> usize {
    other::scratch(n)
}
