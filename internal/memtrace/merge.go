package memtrace

import "nvscavenger/internal/trace"

// objectKey identifies an object across the per-shard tracers of one sharded
// run.  ObjectIDs are not stable across shards — a truncated shard reaches
// its post-processing phase early and may register heap signatures in a
// different order — but (segment, name, site) is unique within a tracer and
// identical for the same application object in every shard.
type objectKey struct {
	seg  trace.Segment
	name string
	site string
}

// MergeShards folds the per-shard tracers of a sharded run into the last
// shard's tracer and returns it.  Every shard replayed the same program, so
// the last shard (the one whose Window has Last set) already holds the exact
// structural state of a full run: object index, address ranges, pattern
// chains, registry statistics, iteration instruction counts, stack high
// water.  What it is missing are the counters recorded by the other shards'
// owned spans — per-object and per-segment reference counts, touched
// iterations, unknown/sampled tallies — which this merge sums in.  Ownership
// of the iteration space is disjoint, so the sums reproduce the full run's
// counters exactly; per-iteration Instructions denominators are restamped
// from the last shard's retired-instruction series afterwards.  All tracers
// must be closed first.  The caller must not reuse the donor shards.
func MergeShards(shards []*Tracer) *Tracer {
	base := shards[len(shards)-1]
	if len(shards) == 1 {
		restampInstructions(base)
		return base
	}

	byKey := map[objectKey]*Object{}
	for _, o := range base.reg.allObjects() {
		byKey[objectKey{o.Segment, o.Name, o.Site}] = o
	}

	for _, s := range shards[:len(shards)-1] {
		for _, o := range s.reg.allObjects() {
			if o.total.Refs() == 0 {
				continue
			}
			b := byKey[objectKey{o.Segment, o.Name, o.Site}]
			if b == nil {
				// Every object with owned references was registered during
				// the deterministic replay prefix the base shard shares, so
				// a missing key would mean the replays diverged.
				panic("memtrace: sharded replay diverged: object " + o.Name + " unknown to the merge base") //nvlint:ignore errcontract invariant assertion; runner.Recover absorbs it per run
			}
			for len(b.perIter) < len(o.perIter) {
				b.perIter = append(b.perIter, IterStats{})
			}
			for i := range o.perIter {
				b.perIter[i].Reads += o.perIter[i].Reads
				b.perIter[i].Writes += o.perIter[i].Writes
			}
			b.total.Reads += o.total.Reads
			b.total.Writes += o.total.Writes
			b.touched += o.touched
			if s.sampleBytes != nil && base.sampleBytes != nil {
				base.sampleBytes[b.ID] += s.sampleBytes[o.ID]
			}
		}
		for seg, donor := range s.segIter {
			stats := &base.segIter[seg]
			for len(*stats) < len(donor) {
				*stats = append(*stats, trace.Stats{})
			}
			for i := range donor {
				(*stats)[i].Reads += donor[i].Reads
				(*stats)[i].Writes += donor[i].Writes
				(*stats)[i].BytesRead += donor[i].BytesRead
				(*stats)[i].BytesWrite += donor[i].BytesWrite
			}
		}
		base.Unknown += s.Unknown
		base.Sampled += s.Sampled
		base.SampledOut += s.SampledOut
	}

	restampInstructions(base)
	return base
}

// restampInstructions re-establishes the finishIterationAccounting invariant
// on the merged counters: every per-iteration slot with references carries
// that iteration's retired-instruction count, every untouched slot carries
// zero.  The base tracer replayed the whole program, so its iterInstrs series
// equals the full run's.
func restampInstructions(t *Tracer) {
	for _, o := range t.reg.allObjects() {
		for i := range o.perIter {
			s := &o.perIter[i]
			if s.Refs() > 0 && i < len(t.iterInstrs) {
				s.Instructions = t.iterInstrs[i]
			} else {
				s.Instructions = 0
			}
		}
	}
}
