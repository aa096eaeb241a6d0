//! The work ledger is per thread: what another thread counts never shows in
//! this thread's window. (A thread is started here, outside `src`, which
//! starts none.)

use lcdb_budget::work::{self, Work};

#[test]
fn work_on_another_thread_is_not_seen() {
    let before = work::snapshot();
    work::add(Work::LpSolves, 1);
    let elsewhere = std::thread::spawn(|| {
        let there = work::snapshot();
        work::add(Work::LpSolves, 5);
        work::add(Work::CellsSplit, 2);
        there.since()
    })
    .join()
    .expect("the counting thread finished");
    assert_eq!((elsewhere[Work::LpSolves], elsewhere[Work::CellsSplit]), (5, 2));
    let here = before.since();
    assert_eq!((here[Work::LpSolves], here[Work::CellsSplit]), (1, 0));
}
