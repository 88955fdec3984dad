//! `NvtList::check_invariants` / `NvtMap::check_invariants` against
//! hand-built chains. The structures' operations are IR programs the VM
//! runs, so nothing in this crate builds a chain: these tests link nodes
//! word by word through the public layout, the way a corrupted image
//! would present them, and hold the host-side checker to its verdicts.

use ido_lockfree::{align64, NvtList, NvtMap, NODE_BYTES, NODE_KEY, NODE_NEXT};
use ido_nvm::alloc::NvAllocator;
use ido_nvm::{PmemHandle, PmemPool, PoolConfig, PAddr};

fn pool() -> (PmemPool, NvAllocator) {
    let pool = PmemPool::new(PoolConfig::small_for_tests());
    let alloc = NvAllocator::format(&mut pool.handle(), pool.size());
    (pool, alloc)
}

/// Links fresh nodes holding `keys`, in that order, behind `list`'s
/// sentinel (no protocol, no persistence: the checker reads the volatile
/// image), and returns them.
fn link(h: &mut PmemHandle, alloc: &NvAllocator, list: NvtList, keys: &[i64]) -> Vec<PAddr> {
    let mut pred = list.head;
    let nodes = keys.iter().map(|&key| {
        let node = align64(alloc.alloc(h, NODE_BYTES + 64).unwrap());
        h.write_u64(node + NODE_KEY, key as u64);
        h.write_u64(node + NODE_NEXT, 0);
        h.write_u64(pred + NODE_NEXT, node as u64);
        pred = node;
        node
    });
    nodes.collect()
}

#[test]
fn sorted_chain_is_accepted_and_returned_in_order() {
    let (pool, alloc) = pool();
    let mut h = pool.handle();
    let list = NvtList::create(&mut h, &alloc).unwrap();
    assert_eq!(list.check_invariants(&mut h, 0), vec![]);
    link(&mut h, &alloc, list, &[-4, 1, 3, 9]);
    assert_eq!(NvtList::attach(list.head).check_invariants(&mut h, 4), vec![-4, 1, 3, 9]);
}

#[test]
#[should_panic(expected = "keys not strictly ascending: 5 then 3")]
fn unsorted_chain_is_rejected() {
    let (pool, alloc) = pool();
    let mut h = pool.handle();
    let list = NvtList::create(&mut h, &alloc).unwrap();
    link(&mut h, &alloc, list, &[1, 5, 3]);
    list.check_invariants(&mut h, 8);
}

#[test]
#[should_panic(expected = "keys not strictly ascending: 3 then 2")]
fn cyclic_chain_is_rejected_not_walked_forever() {
    let (pool, alloc) = pool();
    let mut h = pool.handle();
    let list = NvtList::create(&mut h, &alloc).unwrap();
    let nodes = link(&mut h, &alloc, list, &[1, 2, 3]);
    h.write_u64(nodes[2] + NODE_NEXT, nodes[1] as u64);
    list.check_invariants(&mut h, 8);
}

/// A four-bucket map with every key of `0..32` linked, ascending, into
/// the bucket `place` names for it.
fn map_with(place: impl Fn(&NvtMap, i64) -> u32) -> (PmemPool, NvtMap) {
    let (pool, alloc) = pool();
    let mut h = pool.handle();
    let map = NvtMap::create(&mut h, &alloc, 4).unwrap();
    for b in 0..map.buckets() {
        let keys: Vec<i64> = (0..32).filter(|&k| place(&map, k) == b).collect();
        let list = map.bucket(&mut h, b);
        link(&mut h, &alloc, list, &keys);
    }
    drop(h);
    (pool, map)
}

#[test]
fn keys_in_their_home_buckets_are_accepted_and_counted() {
    let (pool, map) = map_with(NvtMap::bucket_of);
    let mut h = pool.handle();
    assert_eq!(NvtMap::attach(&mut h, map.dir).check_invariants(&mut h, 32), 32);
}

#[test]
#[should_panic(expected = "stored outside its home bucket")]
fn key_outside_its_home_bucket_is_rejected() {
    // Every chain is sorted; only the placement is wrong.
    let (pool, map) = map_with(|map, key| (map.bucket_of(key) + (key == 7) as u32) % 4);
    map.check_invariants(&mut pool.handle(), 32);
}
