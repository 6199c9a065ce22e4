//! The checker's own rules, driven through its recording calls.
//!
//! The checker's switches and tables are process-global, and a
//! `should_panic` test below is two `record_*` calls that must see each
//! other. So these tests have a binary of their own — no test here runs a
//! construct, whose `begin_launch` would clear the tables between the two
//! calls — and take one lock, because libtest runs them on parallel
//! threads and a neighbour's `set_enabled(false)` would do the same.

#![cfg(feature = "racecheck")]

use std::sync::{Mutex, MutexGuard};

use racc_core::racecheck::*;

/// Held for the whole of each test. A `should_panic` test poisons it by
/// design; the state it guards is reset at the top of every test.
fn exclusive() -> MutexGuard<'static, ()> {
    static CHECKER: Mutex<()> = Mutex::new(());
    CHECKER.lock().unwrap_or_else(|poison| poison.into_inner())
}

#[test]
fn disabled_by_default_records_nothing() {
    let _guard = exclusive();
    set_enabled(false);
    begin_launch();
    set_current_iteration(1);
    record_write(0x10, 0);
    record_write(0x10, 0);
    end_launch();
}

#[test]
fn same_iteration_may_rewrite() {
    let _guard = exclusive();
    set_enabled(true);
    begin_launch();
    set_current_iteration(5);
    record_write(0x20, 1);
    record_write(0x20, 1);
    end_launch();
    set_enabled(false);
}

#[test]
#[should_panic(expected = "racecheck")]
fn cross_iteration_write_panics() {
    let _guard = exclusive();
    set_enabled(true);
    set_track_reads(false);
    begin_launch();
    set_current_iteration(1);
    record_write(0x30, 2);
    set_current_iteration(2);
    record_write(0x30, 2);
}

#[test]
fn reads_ignored_without_tracking() {
    let _guard = exclusive();
    set_enabled(true);
    set_track_reads(false);
    begin_launch();
    set_current_iteration(1);
    record_read(0x40, 0);
    set_current_iteration(2);
    record_write(0x40, 0); // reader was not recorded: no race
    end_launch();
    set_enabled(false);
}

#[test]
fn same_iteration_read_write_is_fine() {
    let _guard = exclusive();
    set_enabled(true);
    set_track_reads(true);
    begin_launch();
    set_current_iteration(3);
    record_read(0x50, 1);
    record_write(0x50, 1);
    record_read(0x50, 1);
    end_launch();
    set_track_reads(false);
    set_enabled(false);
}

#[test]
#[should_panic(expected = "read-write race")]
fn write_after_foreign_read_panics() {
    let _guard = exclusive();
    set_enabled(true);
    set_track_reads(true);
    begin_launch();
    set_current_iteration(1);
    record_read(0x60, 4);
    set_current_iteration(2);
    record_write(0x60, 4);
}

#[test]
#[should_panic(expected = "read-write race")]
fn read_after_foreign_write_panics() {
    let _guard = exclusive();
    set_enabled(true);
    set_track_reads(true);
    begin_launch();
    set_current_iteration(1);
    record_write(0x70, 5);
    set_current_iteration(2);
    record_read(0x70, 5);
}
