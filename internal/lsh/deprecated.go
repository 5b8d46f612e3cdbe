package lsh

import "time"

// Declarations the index's multi-shard layout left behind. The
// benchmark module (perfbench/) still names them; they go when it
// stops. Nothing else in this module uses them.

// ShardedReverse is the reverse view's name from the multi-shard
// layout.
//
// Deprecated: the index has one shard; use Reverse.
type ShardedReverse = Reverse

// BuildTimes returns the build's wall time as a one-entry list (zero
// for a loaded index).
//
// Deprecated: an index builds as one unit; the list has one entry.
func (ix *Index) BuildTimes() []time.Duration { return []time.Duration{ix.buildTime} }

// ReorderTime returns 0: the index is built in original item order.
//
// Deprecated: locality reordering is gone.
func (ix *Index) ReorderTime() time.Duration { return 0 }

// FanOutLocality returns 0, 0: a one-shard index fans no query out.
//
// Deprecated: cross-shard fan-out is gone.
func (ix *Index) FanOutLocality() (local, foreign int64) { return 0, 0 }

// FanOutOps returns 0, 0: a one-shard index probes no other shard.
//
// Deprecated: cross-shard fan-out is gone.
func (ix *Index) FanOutOps() (probes, direct int64) { return 0, 0 }

// ForeignSlotBytes returns 0: a one-shard index keeps no
// foreign-emptiness bitmap.
//
// Deprecated: cross-shard fan-out is gone.
func (ix *Index) ForeignSlotBytes() int64 { return 0 }
