package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"compactsg/internal/obs"
)

// ErrClosed is returned once the server (and with it every batcher)
// has begun shutting down; the client gets 503.
var ErrClosed = errors.New("serve: server is shutting down")

// evalFunc runs the kernel over one dispatched batch, writing the value
// of xs[k] to out[k]; (*compactsg.Grid).EvaluateBatch is one. An error
// fails every call in the batch, unless the batch mixes point lengths
// (see run).
type evalFunc func(xs [][]float64, out []float64) ([]float64, error)

// A batcher coalesces concurrent single-point evaluation requests into
// micro-batches: the first arrival opens a batch, which is dispatched
// to eval when it reaches maxBatch points or when maxWait elapses,
// whichever comes first. This replaces per-request evaluation with the
// paper's batched decompression (one batch kernel call over the
// configured worker pool and cache blocking), and bounds the extra
// latency by maxWait.
//
// Liveness contract: the flush loop never blocks on a caller. Every
// per-call result channel is buffered (capacity 1) and delivered with a
// non-blocking send, and calls whose context was cancelled after
// enqueue are dropped from the batch instead of being evaluated — an
// abandoned caller can neither wedge run() nor bill work for an answer
// nobody is waiting on.
type batcher struct {
	eval     evalFunc
	in       chan evalCall
	maxBatch int
	maxWait  time.Duration
	onFlush  func(batchSize int) // metrics hook, may be nil

	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup // submits between accept and enqueue
	enqueued atomic.Int64   // calls accepted into in; a test waits on it before Close
	done     chan struct{}  // closed when run has drained and exited
}

type evalCall struct {
	ctx context.Context
	x   []float64
	res chan evalResult
	enq time.Time // when submit enqueued the call (queue-wait origin)
}

// evalResult carries the value plus the flush loop's stage timings.
// Timings ride the result channel instead of being written into the
// caller's obs.Span directly: a span is owned by its request goroutine,
// and an abandoned caller may Finish (and recycle) its span while the
// flush loop is still mid-batch — delivering timings by value keeps the
// loop from ever touching a span it does not own.
type evalResult struct {
	v   float64
	err error

	queueWait time.Duration // enqueue -> batch flush decision
	dispatch  time.Duration // flush decision -> kernel entry
	eval      time.Duration // kernel wall time (shared by the batch)
	batch     int           // points in the dispatched batch
}

// resChanPool recycles the per-call result channels, the only per-submit
// allocation on the coalesced path. A channel is returned to the pool
// only after its caller has received the (single) result run sends, so a
// pooled channel is always empty; channels abandoned on context
// cancellation — where run may still deliver into the buffer — are left
// to the garbage collector instead.
var resChanPool = sync.Pool{New: func() any { return make(chan evalResult, 1) }}

func newBatcher(eval evalFunc, maxBatch int, maxWait time.Duration, onFlush func(int)) *batcher {
	if maxBatch < 1 {
		maxBatch = 1
	}
	b := &batcher{
		eval:     eval,
		in:       make(chan evalCall, 4*maxBatch),
		maxBatch: maxBatch,
		maxWait:  maxWait,
		onFlush:  onFlush,
		done:     make(chan struct{}),
	}
	go b.run()
	return b
}

// submit enqueues one point and waits for its value. ctx bounds the
// wait; a call abandoned after enqueue is skipped by the flush loop
// (see run), so the batch result for the remaining callers is
// unaffected. When ctx carries an obs.Span, the flush loop's timings
// (queue wait, dispatch, eval, batch size) are recorded on it here, on
// the owning goroutine.
func (b *batcher) submit(ctx context.Context, x []float64) (float64, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return 0, ErrClosed
	}
	b.inflight.Add(1)
	b.mu.Unlock()

	res := resChanPool.Get().(chan evalResult)
	call := evalCall{ctx: ctx, x: x, res: res, enq: time.Now()}
	select {
	case b.in <- call:
		b.enqueued.Add(1)
		b.inflight.Done()
	case <-ctx.Done():
		b.inflight.Done()
		resChanPool.Put(res) // never enqueued: run cannot send into it
		return 0, ctx.Err()
	}
	select {
	case r := <-call.res:
		resChanPool.Put(res) // drained: run sends at most once per call
		if sp := obs.FromContext(ctx); sp != nil {
			sp.Add(obs.StageQueueWait, r.queueWait)
			sp.Add(obs.StageDispatch, r.dispatch)
			sp.Add(obs.StageEval, r.eval)
			sp.SetBatchSize(r.batch)
		}
		return r.v, r.err
	case <-ctx.Done():
		// Abandoned: run may still deliver into the buffer, so this
		// channel must not be pooled. The wait so far is still queue
		// time from the request's point of view.
		if sp := obs.FromContext(ctx); sp != nil {
			sp.Add(obs.StageQueueWait, time.Since(call.enq))
		}
		return 0, ctx.Err()
	}
}

// close stops the batcher: new submits fail with ErrClosed, everything
// already enqueued is flushed at once (callers get their values), then
// the run goroutine exits. Safe to call more than once and from several
// goroutines; every call blocks until the drain is complete.
func (b *batcher) close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.done
		return
	}
	b.closed = true
	b.mu.Unlock()
	b.inflight.Wait() // no sender is between accept and enqueue now
	close(b.in)
	<-b.done
}

// deliver hands a result to one caller without ever blocking the flush
// loop. The channel has capacity 1 and run sends at most once per call,
// so the default branch is unreachable today; it is kept so no future
// refactor can reintroduce the lost-wakeup wedge.
func deliver(c evalCall, r evalResult) {
	select {
	case c.res <- r:
	default:
	}
}

func (b *batcher) run() {
	defer close(b.done)
	var (
		calls []evalCall
		live  []evalCall
		xs    [][]float64
		out   []float64
		errs  []error
	)
	// One timer for the life of the loop (go 1.22 semantics: Stop/drain
	// before every Reset so a stale fire can never cut a batch short).
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		first, ok := <-b.in
		if !ok {
			return
		}
		calls = append(calls[:0], first)
		timer.Reset(b.maxWait)
		fired := false
	collect:
		for len(calls) < b.maxBatch {
			select {
			case c, ok := <-b.in:
				if !ok {
					break collect // closed: flush now; the next receive exits
				}
				calls = append(calls, c)
			case <-timer.C:
				fired = true
				break collect
			}
		}
		if !fired && !timer.Stop() {
			<-timer.C
		}

		// The batch is closed: everything enqueued before this instant
		// was waiting in the queue; everything after is dispatch cost.
		flushed := time.Now()

		// Drop calls whose caller already gave up: their submit has
		// returned ctx.Err(), nobody reads the result, and evaluating
		// the point would be wasted batch work.
		live = live[:0]
		xs = xs[:0]
		for _, c := range calls {
			if c.ctx != nil && c.ctx.Err() != nil {
				continue
			}
			live = append(live, c)
			xs = append(xs, c.x)
		}
		if len(live) == 0 {
			continue
		}

		if cap(out) < len(live) {
			out = make([]float64, len(live))
		}
		evalStart := time.Now()
		_, err := b.eval(xs, out[:len(live)])
		split := err != nil && mixedLengths(xs)
		errs = errs[:0]
		for k := range xs {
			if split {
				// Points of several lengths cannot all fit one grid (a
				// swap changed its dimension under some parked calls):
				// each call is evaluated alone, so a point of the wrong
				// dimension fails only its own call.
				_, err = b.eval(xs[k:k+1], out[k:k+1])
			}
			errs = append(errs, err)
		}
		evalDur := time.Since(evalStart)
		dispatch := evalStart.Sub(flushed)
		// Record the batch before any caller wakes, so a caller that
		// reads the metrics after its result always sees its batch.
		if b.onFlush != nil {
			b.onFlush(len(live))
		}
		for k, c := range live {
			r := evalResult{
				err:       errs[k],
				queueWait: flushed.Sub(c.enq),
				dispatch:  dispatch,
				eval:      evalDur,
				batch:     len(live),
			}
			if r.err == nil {
				r.v = out[k]
			}
			deliver(c, r)
		}
	}
}

// mixedLengths reports whether xs holds points of more than one length.
func mixedLengths(xs [][]float64) bool {
	for _, x := range xs {
		if len(x) != len(xs[0]) {
			return true
		}
	}
	return false
}
