// Package redundancy implements the detection hot loop's fast path: a small
// per-consumer direct-mapped cache that filters provably redundant accesses
// before they reach the signature memory.
//
// The motivation is the overwhelmingly common case in real access streams: a
// thread re-touching an address it just touched. Without filtering, every such
// access pays the full backend cost in sig.Asymmetric — a 128-bit MurmurHash
// pass, a write-slot load and a k-probe bloom-filter Add — only for
// detect.Process to discard it as a non-event. PROMPT (arXiv 2311.03263) and
// Coppa et al.'s multithreaded input-sensitive profiler (arXiv 1304.3804) both
// show that filtering redundant accesses in a small private cache before the
// main profiling structure is the single biggest lever on profiler slowdown.
//
// The cache records, per granularity-shifted address (granule), the last
// (thread, kind) to touch it. Three access shapes are skipped, each a provable
// no-op on the event stream under Fig. 2's communicating-access rule:
//
//  1. read by T when the entry is (T, read): T is already in the granule's
//     recorded reader set and no write intervened, so the backend would
//     return firstRead=false and the detector would drop the access;
//  2. write by T when the entry is (T, write): no read intervened since T's
//     last write, so re-recording T as last writer and re-clearing an
//     already-empty reader set changes nothing;
//  3. read by T when the entry is (T, write): the backend would answer
//     writer==T, and a thread reading its own last write is never
//     communication. (Skipping leaves T out of the recorded reader set, but
//     that omission is unobservable: until the next write — which resets the
//     reader set anyway — the last writer remains T, so any later
//     non-filtered read by T still resolves writer==T and stays a non-event.)
//
// Any other access misses, is forwarded to the backend, and replaces the
// entry — in particular a cross-thread write replaces a cached read entry,
// so the reader's next access goes back to the backend and RAW detection is
// unaffected. A direct-mapped index collision merely evicts the resident
// entry, which only loses skip opportunities, never correctness.
//
// On a collision-free (exact) backend the filtered event stream, matrices and
// per-region attribution are bit-identical to the unfiltered ones; the
// property tests in internal/detect and internal/pipeline pin this over every
// bundled workload. On the approximate asymmetric signature the skips also
// suppress the backend's collision side effects for cached granules (a
// colliding write can no longer resurrect a filtered read as "first"), so
// specific false positives differ while the expected rate stays in the same
// band — the same statistical contract the sharded pipeline already has.
//
// A Cache is deliberately NOT safe for concurrent use: it belongs to exactly
// one consuming goroutine (the serial detector's driver, or one shard worker
// in the sharded pipeline, which sees every access of its addresses and can
// therefore invalidate correctly on cross-thread writes). The hit/miss
// counters are atomics only so concurrent telemetry snapshots can read them
// while a run is in flight.
package redundancy

import (
	"fmt"
	"sync/atomic"
)

// MaxBits bounds the cache at 2^20 entries: 12 MiB of tags and metadata
// (12 bytes per entry) per cache, and every serial run or pipeline shard
// owns one. The sweet spot is a cache that fits in L1/L2, i.e. 10–14 bits;
// past that the cache itself misses to memory and only costs footprint.
const MaxBits = 20

// maxThread is the largest thread ID the packed metadata word can hold.
const maxThread = 1<<30 - 1

const (
	metaValid  uint32 = 1 << 31
	metaWrite  uint32 = 1 << 30
	threadMask uint32 = 1<<30 - 1
)

// fibMix spreads granule addresses across the index space with one multiply
// (Fibonacci hashing); sequential granules land on well-separated lines, so
// strided loops do not thrash one index.
const fibMix uint64 = 0x9E3779B97F4A7C15

// Cache is the direct-mapped redundancy filter. Build one per consumer with
// New; see the package comment for the skip rules and the ownership contract.
type Cache struct {
	shift uint     // 64 - bits: top bits of the mixed granule select the line
	tags  []uint64 // granule address resident at each line
	meta  []uint32 // metaValid | kind bit | thread ID of the last toucher

	// Counters are written only by the owning goroutine but read by live
	// telemetry snapshots, hence atomics (cf. pipeline.Producer.flushes).
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// New builds a cache with 2^bits entries. bits must be in [1, MaxBits];
// threads must fit the packed metadata word (< 2^30).
func New(bits uint, threads int) (*Cache, error) {
	if bits < 1 || bits > MaxBits {
		return nil, fmt.Errorf("redundancy: cache bits must be in [1,%d], got %d", MaxBits, bits)
	}
	if threads <= 0 || threads > maxThread {
		return nil, fmt.Errorf("redundancy: threads must be in [1,%d], got %d", maxThread, threads)
	}
	n := uint64(1) << bits
	return &Cache{shift: 64 - bits, tags: make([]uint64, n), meta: make([]uint32, n)}, nil
}

// Entries returns the cache's line count.
func (c *Cache) Entries() int { return len(c.tags) }

// Bits returns log2 of the line count.
func (c *Cache) Bits() uint { return 64 - c.shift }

// Redundant reports whether the access (granule gaddr, thread tid, write or
// read) is provably redundant and may skip the signature backend. On a miss
// the entry is replaced with this access, so the decision costs one multiply,
// one load pair and one compare either way. gaddr must already be shifted by
// the analysis granularity — the cache never sees raw byte addresses.
func (c *Cache) Redundant(gaddr uint64, tid int32, write bool) bool {
	i := (gaddr * fibMix) >> c.shift
	m := c.meta[i]
	if c.tags[i] == gaddr && m&metaValid != 0 && m&threadMask == uint32(tid) {
		// Same thread, same granule. A read skips whatever the resident kind
		// (rules 1 and 3); a write skips only over its own write (rule 2) —
		// a write over a resident read must reach the backend, because it
		// changes the last writer's epoch and clears the reader set.
		if !write || m&metaWrite != 0 {
			c.hits.Add(1)
			return true
		}
	}
	if m&metaValid != 0 && c.tags[i] != gaddr {
		c.evictions.Add(1)
	}
	c.tags[i] = gaddr
	nm := metaValid | uint32(tid)
	if write {
		nm |= metaWrite
	}
	c.meta[i] = nm
	c.misses.Add(1)
	return false
}

// Reset invalidates every entry and zeroes the counters.
func (c *Cache) Reset() {
	for i := range c.meta {
		c.meta[i] = 0
	}
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
}

// Stats is a point-in-time snapshot of the cache's filtering work.
type Stats struct {
	// Bits is log2 of the cache's line count.
	Bits uint
	// Hits counts accesses skipped as redundant (the fast path).
	Hits uint64
	// Misses counts accesses forwarded to the backend.
	Misses uint64
	// Evictions counts index collisions that displaced a resident granule —
	// the signal that the cache is undersized for the working set.
	Evictions uint64
}

// Lookups is the total access count the cache has filtered.
func (s Stats) Lookups() uint64 { return s.Hits + s.Misses }

// HitRate is the skipped fraction (0 when the cache saw no accesses).
func (s Stats) HitRate() float64 {
	if n := s.Lookups(); n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// Add accumulates another snapshot into s (used to merge per-shard caches).
func (s Stats) Add(o Stats) Stats {
	if s.Bits == 0 {
		s.Bits = o.Bits
	}
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	return s
}

// Stats snapshots the counters; safe to call while the owner is filtering.
func (c *Cache) Stats() Stats {
	return Stats{
		Bits:      c.Bits(),
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}
