//! BAD: queues with no capacity — every construction here is flagged.

use tdp_sync::channel::unbounded;

fn plain() {
    let (_tx, _rx) = unbounded::<u64>(); // flagged (turbofish form)
}

fn via_path() {
    let (_tx, _rx) = tdp_sync::channel::unbounded(); // flagged
}

fn std_mpsc() {
    let (_tx, _rx) = std::sync::mpsc::channel::<u32>(); // flagged
}
