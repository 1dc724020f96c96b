// Fixture: every determinism violation class. Scanned by the self-tests
// with a protocol-scope path; excluded from the workspace walk.
use std::collections::HashMap;
use std::time::Instant;

pub struct State {
    pub counts: HashMap<u32, u64>,
}

pub fn tick(state: &State) -> u64 {
    let started = Instant::now();
    let draw: u32 = rand::thread_rng().gen();
    let mut sum = draw as u64;
    for (_k, v) in state.counts.iter() {
        sum += v;
    }
    sum += std::env::var_os("PTF_SEED").map_or(0, |v| v.len() as u64);
    drop(started);
    sum
}
