package main

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"nvscavenger/internal/apps"
	"nvscavenger/internal/cachesim"
	"nvscavenger/internal/dramsim"
	"nvscavenger/internal/memtrace"
	"nvscavenger/internal/pipeline"
	"nvscavenger/internal/trace"
)

// The replay workload decodes a captured nek5000 transaction trace and
// replays it through the power model for the four Table IV profiles, as
// nvpower -trace does.  The tracer and cache simulator do no work here, so
// a change to the trace codec or dramsim shows on this workload alone.
const (
	replayApp   = "nek5000"
	replayScale = 0.25
	replayIters = 10
)

// captureTrace runs the app through the cache hierarchy with a trace
// writer as the transaction sink and returns the encoded trace and its
// transaction count.
func captureTrace(ctx context.Context) ([]byte, uint64, error) {
	app, err := apps.New(replayApp, replayScale)
	if err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	w := trace.NewTransactionWriter(&buf)
	cache := cachesim.PaperConfig()
	st, err := pipeline.Build(pipeline.Config{
		StackMode: memtrace.FastStack,
		Cache:     &cache,
		TxSinks:   []trace.TxSink{w},
	})
	if err != nil {
		return nil, 0, err
	}
	if err := apps.RunContext(ctx, app, st.Tracer, replayIters); err != nil {
		return nil, 0, err
	}
	if err := st.Close(); err != nil {
		return nil, 0, err
	}
	if err := w.Close(); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), w.Count(), nil
}

// decodeTrace reads every transaction of an encoded trace into a slice
// sized for the n transactions it should hold, so the decode loop measures
// the reader rather than slice growth.
func decodeTrace(enc []byte, n uint64) ([]trace.Transaction, error) {
	r, err := trace.NewReader(bytes.NewReader(enc))
	if err != nil {
		return nil, err
	}
	txs := make([]trace.Transaction, 0, n)
	for {
		t, err := r.ReadTransaction()
		if err == io.EOF {
			return txs, nil
		}
		if err != nil {
			return nil, err
		}
		txs = append(txs, t)
	}
}

// replayProfiles prices the transactions on every Table IV profile, one
// transaction batch per FlushTx call.
func replayProfiles(txs []trace.Transaction, sc *scope) ([]dramsim.PowerReport, error) {
	var reps []dramsim.PowerReport
	for _, prof := range dramsim.Profiles() {
		m, err := dramsim.New(dramsim.PaperConfig(prof))
		if err != nil {
			return nil, err
		}
		for lo := 0; lo < len(txs); lo += trace.DefaultTxBufferSize {
			batch := txs[lo:min(lo+trace.DefaultTxBufferSize, len(txs))]
			sc.begin("dramsim.FlushTx")
			err = m.FlushTx(batch)
			sc.end()
			if err != nil {
				return nil, err
			}
		}
		sc.begin("dramsim.Report")
		reps = append(reps, m.Report())
		sc.end()
	}
	return reps, nil
}

func runReplay(ctx context.Context, b *bench) error {
	var enc []byte
	var ntx uint64
	if err := b.setup(func() error {
		var err error
		enc, ntx, err = captureTrace(ctx)
		return err
	}); err != nil {
		return err
	}
	var first []dramsim.PowerReport
	run := 0
	b.timed([]string{"plain", "traced"}, func(variant string) (sample, bool) {
		run++
		smp := sample{refs: ntx * uint64(len(dramsim.Profiles()))}
		ok := b.op("replay "+variant, func() error {
			var sc *scope
			if variant == "traced" {
				sc = &scope{rec: b.rec, run: run}
			}
			sc.begin("replay.op")
			sc.begin("trace.Reader")
			txs, err := decodeTrace(enc, ntx)
			sc.end()
			if err != nil {
				return err
			}
			if uint64(len(txs)) != ntx {
				return fmt.Errorf("decoded %d transactions, captured %d", len(txs), ntx)
			}
			reps, err := replayProfiles(txs, sc)
			if err != nil {
				return err
			}
			if first == nil {
				first = reps
			} else {
				for i := range reps {
					if reps[i] != first[i] {
						return fmt.Errorf("%s power report differs from the first replay", reps[i].Device)
					}
				}
			}
			var acts uint64
			for _, r := range reps {
				acts += r.Activates
			}
			if err := b.count("dramsim.activations", float64(acts)); err != nil {
				return err
			}
			sc.end()
			if variant == "traced" {
				spans := b.rec.Run(run)
				self := selfByName(spans)
				b.shares(totalByName(spans)["replay.op"], map[string]int64{
					"trace.decode_share": self["trace.Reader"],
					"dramsim.share":      self["dramsim.FlushTx"] + self["dramsim.Report"],
				})
				b.layerValue("trace.bytes", float64(len(enc)))
				b.layerValue("dramsim.activations", float64(acts))
				b.layerValue("dramsim.row_hit_ratio", reps[0].RowHitRatio())
			}
			return nil
		})
		return smp, ok
	})
	return nil
}
