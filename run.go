package xqtp

import (
	"context"
	"runtime"
	"time"

	"xqtp/internal/execctx"
)

// ErrCanceled reports a run cut short by its context: cancellation or an
// expired deadline. Match with errors.Is; the concrete error is a *RunError
// carrying the rows delivered before the stop, and unwraps to the context's
// cause (context.Canceled or context.DeadlineExceeded).
var ErrCanceled = execctx.ErrCanceled

// ErrBudgetExceeded reports a run stopped by its row or byte budget. The
// delivered results are exactly the first rows of the full result in
// document order; the concrete error is a *RunError carrying the counts.
var ErrBudgetExceeded = execctx.ErrBudgetExceeded

// RunError is the typed abort error of a canceled or budget-stopped run:
// the reason (ErrCanceled or ErrBudgetExceeded) plus the rows and bytes
// delivered before the stop.
type RunError = execctx.Error

// Sink receives result items as a run produces them. Push returning an
// error aborts the run; the error comes back from the Run call. A Sink is
// called from the run's merging goroutine only — implementations need no
// locking against the run itself.
type Sink = execctx.Sink

// RunOptions configures a context-aware run. The zero value means no
// deadline, no budgets, sequential evaluation, and results collected into
// the returned Sequence.
type RunOptions struct {
	// Workers caps the evaluation parallelism: the goroutines matching one
	// pattern operator's context nodes for Query runs, the member fan-out
	// for Corpus runs. <= 0 means sequential for Query runs and one worker
	// per available CPU for Corpus runs.
	Workers int
	// Timeout, when positive, bounds the run's wall-clock time (applied on
	// top of the caller's context).
	Timeout time.Duration
	// Deadline, when set, bounds the run's wall-clock time absolutely.
	Deadline time.Time
	// MaxRows, when positive, stops the run after that many result items
	// have been delivered; the run returns ErrBudgetExceeded and the
	// delivered items are the first MaxRows of the full result in document
	// order.
	MaxRows int64
	// MaxBytes, when positive, stops the run once the delivered items'
	// estimated size exceeds it (node items weigh in at their subtree size,
	// atomics at their lexical length).
	MaxBytes int64
	// Sink, when non-nil, receives result items as the run produces them;
	// the returned Sequence is then nil. A nil Sink collects into the
	// returned Sequence.
	Sink Sink
}

// context applies the options' deadline and timeout to ctx.
func (o RunOptions) context(ctx context.Context) (context.Context, context.CancelFunc) {
	cancel := func() {}
	if !o.Deadline.IsZero() {
		ctx, cancel = context.WithDeadline(ctx, o.Deadline)
	}
	if o.Timeout > 0 {
		ctx2, cancel2 := context.WithTimeout(ctx, o.Timeout)
		prev := cancel
		ctx, cancel = ctx2, func() { cancel2(); prev() }
	}
	return ctx, cancel
}

// RunInfo reports what one context-aware run delivered.
type RunInfo struct {
	// Rows and Bytes count the delivered result items and their estimated
	// size (the quantities the budgets meter).
	Rows, Bytes int64
	// Members counts a corpus run's members and Skipped those the emptiness
	// proof skipped without evaluation (both zero for single-document runs).
	Members, Skipped int
}

// normalizeWorkers resolves a worker-count argument: values <= 0 mean one
// worker per available CPU.
func normalizeWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// RunWith evaluates the query under a context with deadlines, budgets, and
// streaming delivery. Result items flow to opts.Sink as they are produced
// (a nil Sink collects them into the returned Sequence). On cancellation or
// a spent budget the delivered items are a prefix of the full result in
// document order, the returned Sequence (nil-Sink case) holds that prefix,
// and the error matches ErrCanceled or ErrBudgetExceeded.
func (q *Query) RunWith(ctx context.Context, doc *Document, alg Algorithm, opts RunOptions) (Sequence, RunInfo, error) {
	if err := doc.closedErr(); err != nil {
		return nil, RunInfo{}, err
	}
	p, err := q.physicalPlan(alg)
	if err != nil {
		return nil, RunInfo{}, err
	}
	ctx, cancel := opts.context(ctx)
	defer cancel()
	ec := execctx.From(ctx, opts.MaxRows, opts.MaxBytes)
	rt := q.runtime(doc, opts.Workers)
	rt.EC = ec
	sink := opts.Sink
	var col *execctx.Collector
	if sink == nil {
		col = &execctx.Collector{}
		sink = col
	}
	err = p.RunSink(rt, sink)
	info := RunInfo{Rows: ec.Rows(), Bytes: ec.Bytes()}
	if col != nil {
		return col.Seq, info, err
	}
	return nil, info, err
}
