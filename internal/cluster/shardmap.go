// Package cluster is the multi-node serving layer: a shard map that
// partitions the anchor relation by a hash of the engine's join key, and
// a stateless router that fans v1 API writes out to fivm-serve workers
// and ring-merges their partial results on reads.
//
// Correctness rests on two properties of the F-IVM payload rings:
//
//   - Sharding: exactly one relation — the anchor — is partitioned by
//     join key across workers; every other relation is broadcast to all
//     of them. Shard i then maintains Q(anchor_i ⋈ others), and since
//     the anchor partitions are disjoint with union the full relation,
//     distributivity of the join over union gives
//     Σ_ring_i Q(anchor_i ⋈ others) = Q(anchor ⋈ others).
//   - Merging: ring addition is associative and commutative, so the
//     per-shard partial results sum to the single-engine result in any
//     order — bit-identically for exact rings (the integer rings, and
//     float payloads over integer-valued data).
//
// Read-your-writes: the router acks a write only after every touched
// shard has applied and (when WAL-enabled) logged its sub-batch
// (?wait=1), and it tracks the cumulative acked count per shard. A
// merged read requires each shard's partial to cover that count (its
// applied counter: the ack's partial_applied or the X-Fivm-Applied
// header), so every acknowledged write is visible in every subsequent
// merged read.
package cluster

import "repro/internal/value"

// ShardMap assigns anchor-relation tuples to shards: FNV-1a over the
// tuple's encoded join-key projection (HashTuple), modulo the shard
// count. A shard's WAL holds exactly the anchor tuples that hashed to
// it, so the hash is part of every durable cluster's state and must
// never change (TestShardMapOwners pins it).
type ShardMap struct {
	shards int
	anchor string
	keyIdx []int
}

// NewShardMap builds a map over n shards for the anchor relation whose
// join-key positions are keyIdx (from Engine.PartitionKey).
func NewShardMap(n int, anchor string, keyIdx []int) *ShardMap {
	if n < 1 {
		n = 1
	}
	return &ShardMap{shards: n, anchor: anchor, keyIdx: keyIdx}
}

// Shards returns the shard count.
func (m *ShardMap) Shards() int { return m.shards }

// Anchor returns the partitioned relation's name; updates to any other
// relation broadcast to every shard.
func (m *ShardMap) Anchor() string { return m.anchor }

// Owner returns the shard owning an anchor-relation tuple.
func (m *ShardMap) Owner(t value.Tuple) int {
	h, _ := HashTuple(t, m.keyIdx, nil)
	return int(h % uint64(m.shards))
}

// HashTuple returns the shard hash of t: FNV-1a over the tuple's
// encoded projection onto keyIdx, or over the full encoded tuple when
// keyIdx is empty. buf is optional scratch; the possibly-grown buffer is
// returned for reuse.
func HashTuple(t value.Tuple, keyIdx []int, buf []byte) (uint64, []byte) {
	if len(keyIdx) == 0 {
		buf = t.AppendEncode(buf[:0])
	} else {
		buf = t.AppendEncodeProject(buf[:0], keyIdx)
	}
	return fnv1a(buf), buf
}

// fnv1a hashes b with the 64-bit FNV-1a function. Inlined rather than
// importing hash/fnv to keep the per-tuple routing cost at zero
// allocations.
func fnv1a(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= prime64
	}
	return h
}
