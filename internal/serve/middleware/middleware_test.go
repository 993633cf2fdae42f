package middleware

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestShedderClassOrdering is the shed-reads-before-writes table: at every
// occupancy level, reads must be refused while writes are still admitted,
// and under pressure reads shed at half their normal threshold.
func TestShedderClassOrdering(t *testing.T) {
	cases := []struct {
		name        string
		max         int
		pressure    bool
		occupancy   int // write slots held before the probe
		wantReadOK  bool
		wantWriteOK bool
	}{
		{name: "empty gate admits both", max: 4, occupancy: 0, wantReadOK: true, wantWriteOK: true},
		{name: "reads shed at reserve boundary, writes admitted", max: 4, occupancy: 3, wantReadOK: false, wantWriteOK: true},
		{name: "full gate sheds both", max: 4, occupancy: 4, wantReadOK: false, wantWriteOK: false},
		{name: "pressure halves the read threshold", max: 8, pressure: true, occupancy: 3, wantReadOK: false, wantWriteOK: true},
		{name: "same occupancy without pressure admits the read", max: 8, pressure: false, occupancy: 3, wantReadOK: true, wantWriteOK: true},
		{name: "max 1 shares the single slot", max: 1, occupancy: 0, wantReadOK: true, wantWriteOK: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pressure := tc.pressure
			s := NewShedder(tc.max, func() bool { return pressure })
			for i := 0; i < tc.occupancy; i++ {
				if !s.Acquire(ClassWrite) {
					t.Fatalf("setup write %d refused", i)
				}
			}
			if got := s.Acquire(ClassRead); got != tc.wantReadOK {
				t.Errorf("read admitted = %v, want %v", got, tc.wantReadOK)
			} else if got {
				s.Release()
			}
			if got := s.Acquire(ClassWrite); got != tc.wantWriteOK {
				t.Errorf("write admitted = %v, want %v", got, tc.wantWriteOK)
			} else if got {
				s.Release()
			}
		})
	}
}

// TestShedderReleaseFreesSlot: a shed gate recovers as soon as work drains.
func TestShedderReleaseFreesSlot(t *testing.T) {
	s := NewShedder(2, nil)
	if !s.Acquire(ClassWrite) || !s.Acquire(ClassWrite) {
		t.Fatal("setup acquires refused")
	}
	if s.Acquire(ClassWrite) {
		t.Fatal("full gate admitted a third write")
	}
	s.Release()
	if !s.Acquire(ClassWrite) {
		t.Fatal("released slot not reusable")
	}
	if got := s.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}
}

// TestFlightCoalesce: N concurrent Do calls run fn exactly once and share
// its result; exactly one caller reports shared == false.
func TestFlightCoalesce(t *testing.T) {
	var f Flight
	var runs atomic.Int32
	release := make(chan struct{})
	const n = 8

	var wg sync.WaitGroup
	starters := make(chan bool, n)
	results := make(chan any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := f.Do(context.Background(), func(ctx context.Context) (any, error) {
				runs.Add(1)
				<-release
				return "result", nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			starters <- !shared
			results <- v
		}()
	}
	// Wait until every goroutine has joined the flight, then release.
	for i := 0; i < 1000 && f.Waiters() < n; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := f.Waiters(); got != n {
		t.Fatalf("Waiters = %d, want %d", got, n)
	}
	close(release)
	wg.Wait()
	close(starters)
	close(results)
	if got := runs.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	nonShared := 0
	for s := range starters {
		if s {
			nonShared++
		}
	}
	if nonShared != 1 {
		t.Fatalf("%d callers report starting the flight, want 1", nonShared)
	}
	for v := range results {
		if v != "result" {
			t.Fatalf("caller got %v, want shared result", v)
		}
	}
}

// TestFlightCancelWhenAbandoned: the flight's context is canceled exactly
// when the last waiter gives up — not when the first does — and a later Do
// starts a fresh flight instead of joining the doomed one.
func TestFlightCancelWhenAbandoned(t *testing.T) {
	var f Flight
	fnCtx := make(chan context.Context, 1)
	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()

	var wg sync.WaitGroup
	wg.Add(2)
	errs := make(chan error, 2)
	go func() {
		defer wg.Done()
		_, _, err := f.Do(ctx1, func(ctx context.Context) (any, error) {
			fnCtx <- ctx
			<-ctx.Done()
			return nil, ctx.Err()
		})
		errs <- err
	}()
	inner := <-fnCtx
	go func() {
		defer wg.Done()
		_, _, err := f.Do(ctx2, func(ctx context.Context) (any, error) {
			t.Error("second Do started a new flight while one was running")
			return nil, nil
		})
		errs <- err
	}()
	for i := 0; i < 1000 && f.Waiters() < 2; i++ {
		time.Sleep(time.Millisecond)
	}

	// First waiter leaves: the shared work must keep running.
	cancel1()
	select {
	case <-inner.Done():
		t.Fatal("flight canceled while a waiter remained")
	case <-time.After(20 * time.Millisecond):
	}

	// Last waiter leaves: now the work is canceled.
	cancel2()
	select {
	case <-inner.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("flight not canceled after the last waiter left")
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter error = %v, want context.Canceled", err)
		}
	}

	// A fresh Do must not join the abandoned call.
	v, shared, err := f.Do(context.Background(), func(ctx context.Context) (any, error) {
		return "fresh", nil
	})
	if err != nil || shared || v != "fresh" {
		t.Fatalf("post-abandon Do = (%v, shared=%v, %v), want fresh unshared run", v, shared, err)
	}
}

// TestChainOrder: Chain(h, a, b) runs a outside b, and nil middlewares are
// skipped.
func TestChainOrder(t *testing.T) {
	var order []string
	mk := func(name string) Middleware {
		return func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				order = append(order, name)
				next.ServeHTTP(w, r)
			})
		}
	}
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		order = append(order, "handler")
	}), mk("outer"), nil, mk("inner"))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	want := []string{"outer", "inner", "handler"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestWithTimeout: the handler's context carries the budget as a deadline,
// and a non-positive budget contributes no middleware at all.
func TestWithTimeout(t *testing.T) {
	var gotDeadline bool
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, gotDeadline = r.Context().Deadline()
	}), WithTimeout(time.Minute))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	if !gotDeadline {
		t.Fatal("handler context carries no deadline")
	}
	if WithTimeout(0) != nil {
		t.Fatal("WithTimeout(0) should disable the middleware")
	}
}
