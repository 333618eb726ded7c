package execctx

import (
	"context"
	"errors"
	"testing"
	"time"

	"xqtp/internal/xdm"
)

func ints(n int) xdm.Sequence {
	out := make(xdm.Sequence, n)
	for i := range out {
		out[i] = xdm.Integer(i)
	}
	return out
}

// A context that can never be canceled, with no budget, needs no Ctx at all:
// the nil Ctx is the zero-overhead "no limits" context, and every method
// accepts it.
func TestFromNilWhenUnbounded(t *testing.T) {
	if ec := From(context.Background(), 0, 0); ec != nil {
		t.Fatalf("From(background, 0, 0) = %p, want nil", ec)
	}
	if ec := From(context.Background(), -1, -1); ec != nil {
		t.Fatalf("From(background, -1, -1) = %p, want nil", ec)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if From(ctx, 0, 0) == nil {
		t.Fatal("a cancelable context needs a Ctx")
	}
	if From(context.Background(), 1, 0) == nil || From(context.Background(), 0, 1) == nil {
		t.Fatal("a budget needs a Ctx")
	}

	var ec *Ctx
	if ec.Stopped() || ec.Err() != nil || ec.Rows() != 0 || ec.Bytes() != 0 || ec.CancelOnly() != nil {
		t.Fatal("nil Ctx must report an unlimited, running context")
	}
	var col Collector
	if err := Deliver(ec, &col, ints(5)); err != nil || len(col.Seq) != 5 {
		t.Fatalf("Deliver(nil Ctx) = %v with %d items, want all 5", err, len(col.Seq))
	}
}

// checkBudgetStop asserts err is the typed budget stop and col holds exactly
// the first want items of full.
func checkBudgetStop(t *testing.T, err error, col *Collector, full xdm.Sequence, want int) {
	t.Helper()
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	var e *Error
	if !errors.As(err, &e) {
		t.Fatalf("err = %T, want *Error", err)
	}
	if e.Rows != int64(want) {
		t.Fatalf("Error.Rows = %d, want %d", e.Rows, want)
	}
	if len(col.Seq) != want {
		t.Fatalf("delivered %d items, want the %d-item prefix", len(col.Seq), want)
	}
	for i, it := range col.Seq {
		if it != full[i] {
			t.Fatalf("item %d = %v, want %v", i, it, full[i])
		}
	}
}

// MaxRows cuts delivery at exactly the budget, across Deliver calls: the
// sink sees the K-item prefix, the run stops with a typed *Error, and every
// later Deliver returns the same stop.
func TestMaxRowsExactPrefix(t *testing.T) {
	ec := From(context.Background(), 3, 0)
	var col Collector
	if err := Deliver(ec, &col, ints(2)); err != nil {
		t.Fatalf("first batch within budget: %v", err)
	}
	err := Deliver(ec, &col, ints(5)[2:])
	checkBudgetStop(t, err, &col, ints(5), 3)
	if ec.Rows() != 3 {
		t.Fatalf("Rows() = %d, want 3", ec.Rows())
	}
	if !ec.Stopped() || ec.Err() != err {
		t.Fatal("a budget stop must be sticky")
	}
	if again := Deliver(ec, &col, ints(1)); again != err || len(col.Seq) != 3 {
		t.Fatalf("Deliver after the stop = %v with %d items", again, len(col.Seq))
	}
}

// MaxBytes charges atomics their lexical length and stops before the item
// that would overrun the budget.
func TestMaxBytesExactPrefix(t *testing.T) {
	ec := From(context.Background(), 0, 10)
	var col Collector
	// Each item weighs 4 bytes: two fit in 10, three do not.
	full := xdm.Sequence{xdm.String("abcd"), xdm.String("efgh"), xdm.String("ijkl"), xdm.String("mnop")}
	err := Deliver(ec, &col, full)
	checkBudgetStop(t, err, &col, full, 2)
	if ec.Bytes() <= 10 {
		t.Fatalf("Bytes() = %d, want the overrunning charge recorded", ec.Bytes())
	}
}

// A cancel-only view shares the run's stop state but never charges the
// budget: corpus members evaluate under it while only the merge point
// charges.
func TestCancelOnlySharesStopNotBudget(t *testing.T) {
	ec := From(context.Background(), 2, 0)
	view := ec.CancelOnly()
	if view == ec {
		t.Fatal("a budgeted Ctx needs a separate cancel-only view")
	}
	var col Collector
	if err := Deliver(view, &col, ints(5)); err != nil || len(col.Seq) != 5 {
		t.Fatalf("cancel-only Deliver = %v with %d items, want all 5 uncharged", err, len(col.Seq))
	}
	if view.Stopped() || ec.Stopped() {
		t.Fatal("delivering through the view must not spend the budget")
	}
	// A budget stop at the merge point halts every view.
	ec = From(context.Background(), 2, 0)
	view = ec.CancelOnly()
	err := Deliver(ec, &Collector{}, ints(3))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("merge-point Deliver = %v, want ErrBudgetExceeded", err)
	}
	if !view.Stopped() || !errors.Is(view.Err(), ErrBudgetExceeded) {
		t.Fatalf("view did not observe the stop: %v", view.Err())
	}

	// Without a budget there is nothing to strip: the view is the Ctx.
	ctx, cancel := context.WithCancel(context.Background())
	plain := From(ctx, 0, 0)
	if plain.CancelOnly() != plain {
		t.Fatal("CancelOnly of an unbudgeted Ctx should return it")
	}
	// And cancellation reaches a view of a budgeted context.
	budgeted := From(ctx, 100, 0)
	v := budgeted.CancelOnly()
	cancel()
	if !v.Stopped() || !errors.Is(v.Err(), ErrCanceled) {
		t.Fatalf("view missed the cancellation: %v", v.Err())
	}
}

// A canceled or expired context stops the run with a typed *Error that
// matches ErrCanceled and unwraps to the context's own error.
func TestCancellationUnwrapsCause(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ec := From(ctx, 0, 0)
	if ec.Stopped() || ec.Err() != nil {
		t.Fatal("live context reported a stop")
	}
	cancel()
	err := ec.Err()
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled: err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if errors.Is(err, ErrBudgetExceeded) {
		t.Fatal("a cancellation is not a budget stop")
	}
	var col Collector
	if got := Deliver(ec, &col, ints(3)); got != err || len(col.Seq) != 0 {
		t.Fatalf("Deliver after cancel = %v with %d items", got, len(col.Seq))
	}

	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	err = From(expired, 0, 0).Err()
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired: err = %v, want ErrCanceled wrapping context.DeadlineExceeded", err)
	}
}
