//! `par_nodes::thread_count` caches the machine's parallelism, but the
//! in-process override and `CC_MIS_THREADS` stay live on every call. This
//! file holds one test, so it owns its process: nothing else touches the
//! override or the environment while it runs.

use cc_mis_sim::par_nodes::{set_thread_override, thread_count};

#[test]
fn override_and_env_stay_live_after_the_machine_value_is_cached() {
    let env_before = std::env::var_os("CC_MIS_THREADS");
    std::env::remove_var("CC_MIS_THREADS");
    let machine = thread_count(); // warms the cache
    assert!(machine >= 1);
    for (ov, env, want) in [
        (Some(3), None, 3),
        (None, None, machine),
        (Some(5), None, 5),
        (None, Some("2"), 2),
        (Some(4), Some("6"), 4),
        (None, Some("6"), 6),
        (None, None, machine),
    ] {
        set_thread_override(ov);
        match env {
            Some(v) => std::env::set_var("CC_MIS_THREADS", v),
            None => std::env::remove_var("CC_MIS_THREADS"),
        }
        assert_eq!(thread_count(), want, "override {ov:?}, env {env:?}");
    }
    if let Some(v) = env_before {
        std::env::set_var("CC_MIS_THREADS", v);
    }
}
