// Fixture: an unsafe block with no SAFETY comment.
pub fn first(xs: &[u8]) -> u8 {
    unsafe { *xs.as_ptr() }
}

// Fixture: a second instruction-set dispatch point, outside the isa module.
#[target_feature(enable = "avx2")]
pub fn wide(xs: &[f32]) -> f32 {
    xs.iter().sum()
}
