//! Clean-fixture stand-in for `fsoi_sim::par`: `crates/sim/src/par.rs`
//! is a simulation-library path exempt from rule D3, so threads and
//! locks here must not fire.
//! Never compiled — only lexed.

use std::collections::VecDeque;
use std::sync::Mutex;

pub fn sweep_exempt() -> u64 {
    let queue: Mutex<VecDeque<u64>> = Mutex::new(VecDeque::new());
    std::thread::scope(|s| {
        let h = s.spawn(|| queue.lock().map(|q| q.len() as u64).unwrap_or(0));
        h.join().unwrap_or(0)
    })
}
