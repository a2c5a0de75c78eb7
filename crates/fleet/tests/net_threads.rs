//! Threads the TCP frontend spends per connection, counted from
//! `/proc/self/task`. A test binary of its own, so no other server shares
//! the process and its thread names.

#![cfg(target_os = "linux")]

use fleet::{Fleet, FleetConfig, NetClient, NetConfig, NetServer};

/// Live threads named by the server (`fleet-net-acceptor`,
/// `fleet-net-core`, `fleet-net-rd-<conn>`, …).
fn server_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("fleet-net-"))
        .count()
}

#[test]
fn one_thread_per_connection() {
    let fleet = Fleet::new(FleetConfig { workers: Some(1), shards: 1, ..FleetConfig::default() });
    let handle = NetServer::spawn(fleet, NetConfig::default()).unwrap();

    let n = 4;
    let mut clients: Vec<NetClient> =
        (0..n).map(|_| NetClient::connect(handle.addr()).unwrap()).collect();
    // A reply on every connection proves its threads are up (no device is
    // registered, so each request is answered with a reject).
    for client in &mut clients {
        assert!(client.request_challenge(1).unwrap().is_err());
    }
    assert_eq!(server_threads(), 2 + n, "acceptor + core + one reader per connection");

    drop(clients);
    handle.shutdown().expect("no server thread may panic");
}
