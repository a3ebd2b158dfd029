//! GOOD: every thread is named at spawn; scoped threads and loom's
//! model-controlled spawn have no Builder and stay legal.

fn pump(rx: tdp_sync::channel::Receiver<Vec<u8>>) {
    std::thread::Builder::new()
        .name("fixture-pump".into())
        .spawn(move || while rx.recv().is_ok() {})
        .expect("spawn pump");
}

fn scoped(items: &mut [u32]) {
    std::thread::scope(|s| {
        for chunk in items.chunks_mut(2) {
            s.spawn(move || chunk.sort_unstable()); // scoped: joined by scope exit
        }
    });
}

#[cfg(loom)]
fn model_thread() {
    // loom controls scheduling; its spawn has no Builder equivalent.
    loom::thread::spawn(|| {});
}
