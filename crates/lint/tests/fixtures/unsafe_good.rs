// Fixture: the same unsafe block, documented.
pub fn first(xs: &[u8]) -> u8 {
    assert!(!xs.is_empty());
    // SAFETY: the assert above guarantees `xs` has an element 0, so
    // `as_ptr()` points at initialized memory we may read.
    unsafe { *xs.as_ptr() }
}

// Fixture: a compile-time feature test is not a dispatch point.
pub const WIDE: bool = cfg!(target_feature = "avx2");
