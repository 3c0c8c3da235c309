// Hot-path file (suffix core/src/epoch.rs, on the list since PR 23) for
// the sdm-lint gate test.

pub fn first_shard(shards: &[u32]) -> u32 {
    *shards.first().expect("a shard") // rule: hot-path-panic
}
