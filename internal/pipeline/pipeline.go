// Package pipeline is the composable batch-propagating dataflow layer of
// the simulator: it assembles the instrumentation tracer, the cache
// hierarchy and the downstream consumers (trace capture, file writers, the
// power and timing simulators) into one stack whose every stage boundary
// moves events in batches.
//
// The paper's §III-D memory-buffer optimization batches the first hop only
// (instrumented references into the analysis code).  This package extends
// the same amortization to every later hop — raw accesses into the cache
// simulator, filtered main-memory transactions into the power simulator,
// performance events into the CPU timing model — so the per-event interface
// call is paid once per batch everywhere.
//
// The stage contract is generic: a Stage[T] consumes batches of T.  The
// combinators (Tee, Filter, Counted) compose stages; Build wires a full
// tracer → hierarchy → consumers stack from one declarative Config.  Legacy
// per-event consumers attach through adapters (cachesim.PerTx for
// per-transaction sinks).
package pipeline

import (
	"fmt"

	"nvscavenger/internal/cachesim"
	"nvscavenger/internal/memtrace"
	"nvscavenger/internal/obs"
	"nvscavenger/internal/trace"
)

// Stage consumes batches of events.  Flush is called with a full (or final,
// possibly short) batch; the callee must not retain the slice.  trace.Sink
// is structurally a Stage[trace.Access], so existing access consumers plug
// in unchanged.
type Stage[T any] interface {
	Flush(batch []T) error
}

// StageFunc adapts a function to the Stage interface.
type StageFunc[T any] func(batch []T) error

// Flush calls f(batch).
func (f StageFunc[T]) Flush(batch []T) error { return f(batch) }

// Tee fans each batch out to every stage in order, stopping at the first
// error.  The batch slice is shared, not copied; stages must not retain or
// mutate it.
func Tee[T any](stages ...Stage[T]) Stage[T] {
	return StageFunc[T](func(batch []T) error {
		for _, s := range stages {
			if err := s.Flush(batch); err != nil {
				return err
			}
		}
		return nil
	})
}

// filter forwards only the events satisfying pred, re-batched through a
// reused scratch buffer so filtering adds no per-batch allocation.
type filter[T any] struct {
	pred    func(T) bool
	next    Stage[T]
	scratch []T
}

// Filter returns a stage forwarding only events for which pred is true.
// Empty filtered batches are not forwarded.
func Filter[T any](pred func(T) bool, next Stage[T]) Stage[T] {
	return &filter[T]{pred: pred, next: next}
}

// Flush implements Stage.
func (f *filter[T]) Flush(batch []T) error {
	f.scratch = f.scratch[:0]
	for _, v := range batch {
		if f.pred(v) {
			f.scratch = append(f.scratch, v)
		}
	}
	if len(f.scratch) == 0 {
		return nil
	}
	return f.next.Flush(f.scratch)
}

// counted instruments a stage boundary with obs counters.
type counted[T any] struct {
	next    Stage[T]
	batches *obs.Counter
	events  *obs.Counter
	errors  *obs.Counter
}

// Counted wraps next with per-stage observability: batches, events and
// errors crossing this stage boundary land in the registry as the
// pipeline_batches_total / pipeline_events_total / pipeline_errors_total
// series labelled with the stage name.  A nil registry returns next
// unchanged, so uninstrumented builds pay nothing.
func Counted[T any](reg *obs.Registry, stage string, next Stage[T], labels ...obs.Label) Stage[T] {
	if reg == nil {
		return next
	}
	ls := append(append([]obs.Label{}, labels...), obs.L("stage", stage))
	return &counted[T]{
		next:    next,
		batches: reg.Counter("pipeline_batches_total", ls...),
		events:  reg.Counter("pipeline_events_total", ls...),
		errors:  reg.Counter("pipeline_errors_total", ls...),
	}
}

// Flush implements Stage.
func (c *counted[T]) Flush(batch []T) error {
	c.batches.Inc()
	c.events.Add(uint64(len(batch)))
	if err := c.next.Flush(batch); err != nil {
		c.errors.Inc()
		return err
	}
	return nil
}

// Capture is a terminal stage accumulating every event in memory.
type Capture[T any] struct {
	// Items holds the captured events in arrival order.
	Items []T
}

// Flush implements Stage.
func (c *Capture[T]) Flush(batch []T) error {
	c.Items = append(c.Items, batch...)
	return nil
}

// TxCapture is Capture with the concrete trace.TxSink contract on top, so a
// fused stack's transaction buffer flushes straight into it without an
// adapter closure.
type TxCapture struct {
	Capture[trace.Transaction]
}

// FlushTx implements trace.TxSink.
func (c *TxCapture) FlushTx(batch []trace.Transaction) error { return c.Flush(batch) }

// TxStage adapts a trace.TxSink (method FlushTx) to the generic Stage
// contract so transaction consumers compose with the combinators.
func TxStage(s trace.TxSink) Stage[trace.Transaction] {
	return StageFunc[trace.Transaction](s.FlushTx)
}

// ToTxSink adapts a transaction Stage back to the trace.TxSink contract the
// cache hierarchy emits on.
func ToTxSink(s Stage[trace.Transaction]) trace.TxSink {
	return trace.TxSinkFunc(s.Flush)
}

// PerfStage adapts a trace.PerfSink (method FlushEvents) to the generic
// Stage contract.
func PerfStage(s trace.PerfSink) Stage[trace.PerfEvent] {
	return StageFunc[trace.PerfEvent](s.FlushEvents)
}

// ToPerfSink adapts a performance-event Stage back to the trace.PerfSink
// contract the tracer flushes into.
func ToPerfSink(s Stage[trace.PerfEvent]) trace.PerfSink {
	return trace.PerfSinkFunc(s.Flush)
}

// Config declares a full instrumentation stack.  Build assembles it; every
// tracer+hierarchy stack in the tree goes through here, so the event flow is
// batched and (when Metrics is set) observable at each stage boundary.
type Config struct {
	// StackMode selects whole-stack (fast) or per-frame (slow) stack
	// attribution in the tracer.
	StackMode memtrace.StackMode
	// Sample selects seeded sampled tracing in the tracer (periodic,
	// Bernoulli or byte-threshold selection; see memtrace.SampleSpec).
	// The zero value observes every reference.
	Sample memtrace.SampleSpec
	// BufferSize is the tracer's staging-buffer capacity (accesses and
	// performance events).  Zero selects trace.DefaultBufferSize.
	BufferSize int
	// Cache, when non-nil, inserts the cache-hierarchy stage: raw accesses
	// are filtered into main-memory transactions delivered to TxSinks.  Nil
	// builds a tracer-only stack (attribution without trace hand-off).
	Cache *cachesim.Config
	// CaptureTx, with Cache set, buffers the filtered transactions in
	// memory; Stack.Transactions returns them after Close.
	CaptureTx bool
	// TxSinks receive the filtered main-memory transaction batches (power
	// simulator, trace writers...).  Wrap legacy per-transaction consumers
	// with cachesim.PerTx.  Requires Cache.
	TxSinks []trace.TxSink
	// AccessTaps receive the raw access batches alongside (before) the
	// cache stage — e.g. a trace.Writer dumping the unfiltered stream.
	AccessTaps []trace.Sink
	// Perf receives the batched performance-event stream (the CPU timing
	// model).
	Perf trace.PerfSink
	// Metrics, when set, wraps each stage boundary in Counted
	// instrumentation (stages: accesses, transactions, perf).  Metrics also
	// selects the wiring: a nil registry lets Build fuse linear
	// single-consumer topologies into direct concrete calls (see Build).
	Metrics *obs.Registry
	// Labels are attached to every pipeline metric series.
	Labels []obs.Label
}

// Stack is an assembled dataflow: the tracer the instrumented application
// drives, plus the cache hierarchy behind it (when configured).
type Stack struct {
	// Tracer is the instrumentation entry point; pass it to apps.Run.
	Tracer *memtrace.Tracer
	// Hierarchy is the cache stage, or nil for tracer-only stacks.
	Hierarchy *cachesim.Hierarchy

	capture  *Capture[trace.Transaction]
	closed   bool
	closeErr error
}

// Build assembles the stack declared by cfg.
//
// With Metrics unset, Build detects linear single-consumer topologies and
// fuses them: the tracer's staging buffer flushes straight into the concrete
// *cachesim.Hierarchy, the hierarchy's transaction buffer flushes straight
// into the one configured consumer (or the concrete capture), and the perf
// buffer flushes straight into the configured PerfSink — one devirtualized
// call per batch at every hop instead of a chain of StageFunc closures.
// Metrics-instrumented builds and fan-out topologies (several TxSinks,
// capture plus sinks, access taps next to the cache) keep the generic
// combinator wiring.
func Build(cfg Config) (*Stack, error) {
	if cfg.Cache == nil && (len(cfg.TxSinks) > 0 || cfg.CaptureTx) {
		return nil, fmt.Errorf("pipeline: transaction consumers configured without a Cache stage")
	}
	st := &Stack{}
	fused := cfg.Metrics == nil

	if cfg.Cache != nil {
		var txSink trace.TxSink
		switch {
		case len(cfg.TxSinks) == 0 && !cfg.CaptureTx:
			// Statistics-only hierarchy: no transaction stage.
		case fused && len(cfg.TxSinks) == 0:
			tc := &TxCapture{}
			st.capture = &tc.Capture
			txSink = tc
		case fused && len(cfg.TxSinks) == 1 && !cfg.CaptureTx:
			txSink = cfg.TxSinks[0]
		default:
			txStages := make([]Stage[trace.Transaction], 0, len(cfg.TxSinks)+1)
			for _, s := range cfg.TxSinks {
				txStages = append(txStages, TxStage(s))
			}
			if cfg.CaptureTx {
				tc := &TxCapture{}
				st.capture = &tc.Capture
				txStages = append(txStages, tc)
			}
			if len(txStages) == 1 {
				txSink = ToTxSink(Counted(cfg.Metrics, "transactions", txStages[0], cfg.Labels...))
			} else {
				txSink = ToTxSink(Counted(cfg.Metrics, "transactions", Tee(txStages...), cfg.Labels...))
			}
		}
		hier, err := cachesim.New(*cfg.Cache, txSink)
		if err != nil {
			return nil, err
		}
		st.Hierarchy = hier
	}

	var sink trace.Sink
	switch {
	case st.Hierarchy == nil && len(cfg.AccessTaps) == 0:
	case fused && st.Hierarchy != nil && len(cfg.AccessTaps) == 0:
		sink = st.Hierarchy
	case fused && st.Hierarchy == nil && len(cfg.AccessTaps) == 1:
		sink = cfg.AccessTaps[0]
	default:
		accessStages := make([]Stage[trace.Access], 0, len(cfg.AccessTaps)+1)
		if st.Hierarchy != nil {
			accessStages = append(accessStages, Stage[trace.Access](st.Hierarchy))
		}
		for _, tap := range cfg.AccessTaps {
			accessStages = append(accessStages, Stage[trace.Access](tap))
		}
		if len(accessStages) == 1 {
			sink = trace.SinkFunc(Counted(cfg.Metrics, "accesses", accessStages[0], cfg.Labels...).Flush)
		} else {
			sink = trace.SinkFunc(Counted(cfg.Metrics, "accesses", Tee(accessStages...), cfg.Labels...).Flush)
		}
	}

	var perf trace.PerfSink
	if cfg.Perf != nil {
		if fused {
			perf = cfg.Perf
		} else {
			perf = ToPerfSink(Counted(cfg.Metrics, "perf", PerfStage(cfg.Perf), cfg.Labels...))
		}
	}

	st.Tracer = memtrace.New(memtrace.Config{
		StackMode:  cfg.StackMode,
		Sample:     cfg.Sample,
		BufferSize: cfg.BufferSize,
		Sink:       sink,
		Perf:       perf,
	})
	return st, nil
}

// MustBuild is Build for known-good configurations.
func MustBuild(cfg Config) *Stack {
	st, err := Build(cfg)
	if err != nil {
		panic(err)
	}
	return st
}

// Transactions returns the captured main-memory trace (CaptureTx builds
// only); call after Close so end-of-run writebacks are included.
func (s *Stack) Transactions() []trace.Transaction {
	if s.capture == nil {
		return nil
	}
	return s.capture.Items
}

// Close finishes the run: it flushes the tracer's staging buffers, drains
// the cache hierarchy's resident dirty lines and pushes the final
// transaction batch downstream.  Close is idempotent — the application
// runner may already have closed the tracer — and returns the first error
// any stage reported.
func (s *Stack) Close() error {
	if s.closed {
		return s.closeErr
	}
	s.closed = true
	err := s.Tracer.Close()
	if s.Hierarchy != nil {
		derr := s.Hierarchy.Drain()
		if err == nil {
			err = derr
		}
		if err == nil {
			err = s.Hierarchy.Err()
		}
	}
	s.closeErr = err
	return err
}
