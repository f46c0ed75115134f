package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"compactsg/internal/obs"
	"compactsg/internal/serve/metrics"
)

// Front is the request front sgserve and sgproxy share, so a client gets
// the same answers from a shard and through the proxy: it wraps handlers
// with request, error and latency accounting, the span lifecycle, panic
// recovery, per-stage histograms and an optional access log. Errorf,
// DecodeJSON and ReadBody are its error type, strict JSON decoder and
// pooled body reader. Its metric families, <prefix>_requests_total,
// _errors_total, _request_seconds, _panics_total, _write_errors_total
// and _stage_seconds, give both hops' /metrics one vocabulary.
type Front struct {
	tracer    *obs.Tracer
	errorLog  *slog.Logger
	accessLog *slog.Logger // nil: no access log

	requests  *metrics.CounterVec
	errors    *metrics.CounterVec
	latency   *metrics.HistogramVec
	panics    *metrics.Counter
	writeErrs *metrics.Counter
	stageSecs [obs.NumStages]*metrics.Histogram // resolved once: no vec-map lock per request
}

// NewFront registers the front's metric families in r under prefix. It
// logs panics to errorLog, and each request to accessLog if non-nil.
func NewFront(prefix string, r *metrics.Registry, tracer *obs.Tracer, errorLog, accessLog *slog.Logger) *Front {
	f := &Front{tracer: tracer, errorLog: errorLog, accessLog: accessLog,
		requests:  r.NewCounterVec(prefix+"_requests_total", "HTTP requests received, by handler and wire protocol (json or bin).", "handler", "protocol"),
		errors:    r.NewCounterVec(prefix+"_errors_total", "Requests answered with a non-2xx status, by handler.", "handler"),
		latency:   r.NewHistogramVec(prefix+"_request_seconds", "Request latency in seconds, by handler.", "handler", metrics.DefLatencyBuckets),
		panics:    r.NewCounter(prefix+"_panics_total", "Handler panics recovered by the instrumentation wrapper (each answered with a 500)."),
		writeErrs: r.NewCounter(prefix+"_write_errors_total", "Response bodies that failed mid-write (client gone, connection reset): the client saw a truncated response despite the logged status."),
	}
	stageVec := r.NewHistogramVec(prefix+"_stage_seconds",
		"Per-request time spent in each serving stage (decode, validate, load, load_wait, queue_wait, dispatch, eval, encode), in seconds.",
		"stage", metrics.DefStageBuckets)
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		f.stageSecs[st] = stageVec.With(st.Name())
	}
	return f
}

// Instrument wraps h as the handler name speaking protocol (json or
// bin): it counts and times the request, runs its span (stamping
// X-Request-Id unless middleware did), and answers a panic with a 500
// and a returned error with WriteError. h writes its own success
// response and records the span's status and encode stage.
//
// Panics must be caught here, not left to net/http: the http.Server
// recovery aborts the connection without writing a response, so the
// client would see a dropped connection, no error would be counted and
// the request's latency would never be observed.
func (f *Front) Instrument(name, protocol string, h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	reqs := f.requests.With(name, protocol)
	errs := f.errors.With(name)
	lat := f.latency.With(name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqs.Inc()
		sp := f.tracer.Start(name)
		if sp != nil {
			if w.Header().Get("X-Request-Id") == "" {
				w.Header().Set("X-Request-Id", strconv.FormatUint(sp.ID(), 10))
			}
			// Record the inbound request ID too, so a proxied request is
			// findable in every hop's /debug/traces under one ID.
			if ext := r.Header.Get("X-Request-Id"); ext != "" {
				sp.SetExtID(ext)
			}
			r = r.WithContext(obs.NewContext(r.Context(), sp))
		}
		status := http.StatusOK
		defer func() {
			if p := recover(); p != nil {
				errs.Inc()
				f.panics.Inc()
				f.errorLog.LogAttrs(r.Context(), slog.LevelError, "handler panic",
					slog.String("handler", name),
					slog.Uint64("request_id", sp.ID()),
					slog.String("panic", fmt.Sprint(p)),
					slog.String("stack", string(debug.Stack())))
				status = f.WriteError(w, Errorf(http.StatusInternalServerError, "internal server error"))
				sp.SetStatus(status)
			}
			total := time.Since(start)
			lat.Observe(total.Seconds())
			f.finishSpan(r.Context(), sp, name, status, total)
		}()
		if err := h(w, r); err != nil {
			errs.Inc()
			sp.SetError(err)
			status = f.WriteError(w, err)
			sp.SetStatus(status)
		}
	}
}

// InstrumentJSON is Instrument for a JSON handler whose 200 answer is
// the JSON encoding of the result h returns.
func (f *Front) InstrumentJSON(name string, h func(*http.Request) (any, error)) http.HandlerFunc {
	return f.Instrument(name, "json", func(w http.ResponseWriter, r *http.Request) error {
		body, err := h(r)
		if err != nil {
			return err
		}
		sp := obs.FromContext(r.Context())
		sp.SetStatus(http.StatusOK)
		sp.Begin(obs.StageEncode)
		f.WriteJSON(w, http.StatusOK, body)
		sp.End(obs.StageEncode)
		return nil
	})
}

// CountError counts a non-2xx answer a handler relayed itself.
func (f *Front) CountError(handler string) { f.errors.With(handler).Inc() }

// finishSpan feeds the span's stages into _stage_seconds, writes the
// access log line and recycles the span, once per request, panic or not.
func (f *Front) finishSpan(ctx context.Context, sp *obs.Span, name string, status int, total time.Duration) {
	if sp != nil {
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			if sp.Touched(st) {
				f.stageSecs[st].Observe(sp.Dur(st).Seconds())
			}
		}
	}
	if f.accessLog != nil {
		attrs := make([]slog.Attr, 0, 8+int(obs.NumStages))
		attrs = append(attrs,
			slog.Uint64("request_id", sp.ID()),
			slog.String("handler", name),
			slog.Int("status", status),
			slog.Duration("total", total))
		if g := sp.Grid(); g != "" {
			attrs = append(attrs, slog.String("grid", g))
		}
		if n := sp.Points(); n > 0 {
			attrs = append(attrs, slog.Int("points", n))
		}
		if n := sp.BatchSize(); n > 0 {
			attrs = append(attrs, slog.Int("batch_size", n))
		}
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			if sp.Touched(st) {
				attrs = append(attrs, slog.Duration(st.Name(), sp.Dur(st)))
			}
		}
		f.accessLog.LogAttrs(ctx, slog.LevelInfo, "request", attrs...)
	}
	sp.Finish()
}

// WriteJSON answers status with body encoded as JSON.
func (f *Front) WriteJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(body); err != nil {
		f.countWriteError(status, err)
	}
}

// WriteBody answers status with body, whose type is contentType.
func (f *Front) WriteBody(w http.ResponseWriter, status int, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		f.countWriteError(status, err)
	}
}

// WriteError answers err as a JSON {"error": ...} body under the status
// Errorf gave it (see statusFor) and returns that status.
func (f *Front) WriteError(w http.ResponseWriter, err error) int {
	status := statusFor(err)
	f.WriteJSON(w, status, errorResponse{Error: err.Error()})
	return status
}

// countWriteError counts and logs (at debug) a body that failed mid-write:
// the status was already sent, so the status metrics cannot show it.
func (f *Front) countWriteError(status int, err error) {
	f.writeErrs.Inc()
	f.errorLog.LogAttrs(context.Background(), slog.LevelDebug, "response write failed",
		slog.Int("status", status),
		slog.String("error", err.Error()))
}

type errorResponse struct {
	Error string `json:"error"`
}

// httpError carries a status code through the handler helpers.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// Errorf returns an error that Instrument answers with status.
func Errorf(status int, format string, args ...any) error {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// statusFor maps handler errors to HTTP status codes.
func statusFor(err error) int {
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he.status
	case errors.Is(err, ErrUnknownGrid):
		return http.StatusNotFound
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled):
		return 499 // client went away (nginx convention)
	}
	return http.StatusInternalServerError
}

// DecodeJSON decodes r's body, capped at limit bytes (413 beyond), into
// dst, timed as the request's decode stage. The body must hold exactly
// one JSON value with no field dst lacks: an unknown field, an empty
// body and trailing data after the value (`{"point":[0.5]}junk`) are
// all 400s — a decoder left to its own devices stops at the end of the
// first value and would silently accept the garbage.
func DecodeJSON(r *http.Request, limit int64, dst any) error {
	sp := obs.FromContext(r.Context())
	sp.Begin(obs.StageDecode)
	defer sp.End(obs.StageDecode)
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return Errorf(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxErr.Limit)
		}
		if errors.Is(err, io.EOF) {
			return Errorf(http.StatusBadRequest, "empty request body")
		}
		return Errorf(http.StatusBadRequest, "invalid JSON request: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Errorf(http.StatusBadRequest, "request body contains data after the JSON value")
	}
	return nil
}

// ReadBody reads body into buf's storage, growing it as needed, and
// returns the filled slice, also on error, so a pooled buffer keeps its
// capacity and a steady-state read allocates nothing (io.ReadAll grows a
// fresh buffer on every call). More than limit bytes is a 413.
func ReadBody(buf []byte, body io.Reader, limit int64) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), max(4096, 2*cap(buf)))
			copy(grown, buf)
			buf = grown
		}
		// Read at most one byte past the limit: enough to refuse.
		n, err := body.Read(buf[len(buf):min(cap(buf), int(limit+1))])
		buf = buf[:len(buf)+n]
		switch {
		case int64(len(buf)) > limit:
			return buf, Errorf(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", limit)
		case err == io.EOF:
			return buf, nil
		case err != nil:
			return buf, Errorf(http.StatusBadRequest, "reading request body: %v", err)
		}
	}
}
