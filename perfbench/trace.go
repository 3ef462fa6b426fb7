package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datastore"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
)

// Span kinds. Every span is recorded from this package, around a call into
// one layer's public functions or interfaces.
const (
	spanOp      = "op"      // one public client call (Query, Insert)
	spanCall    = "call"    // one transport call issued by a transport's owner
	spanHandler = "handler" // one request handler run at a peer
	spanAppend  = "append"  // one storage Backend.Append
)

// span is one timed interval. Op ties a client operation's transport calls
// to the operation: it is the operation span's ID, carried in the ctx.
type span struct {
	ID, Parent uint64
	Phase      phase
	Kind       string
	Name       string // method, operation or record kind
	Client     bool   // issued by (call) or on behalf of (handler) the client
	Start      time.Duration
	Dur        time.Duration
	Bytes      int // encoded request+response (client calls), streamed bytes, WAL bytes
	Items      int // items in a scan segment reply
}

// phase labels the part of a run a span falls in.
type phase int32

const (
	phaseSetup phase = iota
	phaseWarm
	phaseIdle
	phaseOpen
	phaseClosed
	phaseCheck
)

// tracer keeps every span of a traced run in memory until the run ends.
// A nil *tracer traces nothing, and nothing is wrapped.
type tracer struct {
	t0    time.Time
	phase atomic.Int32
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tc *tracer) setPhase(p phase) {
	if tc != nil {
		tc.phase.Store(int32(p))
	}
}

func (tc *tracer) record(s span) {
	s.Phase = phase(tc.phase.Load())
	if s.ID == 0 {
		s.ID = tc.ids.Add(1)
	}
	tc.mu.Lock()
	tc.spans = append(tc.spans, s)
	tc.mu.Unlock()
}

type opKey struct{}

// startOp opens a client operation span and returns the ctx that carries
// its ID to the transport calls the operation makes.
func (tc *tracer) startOp(ctx context.Context, name string) (context.Context, func()) {
	if tc == nil {
		return ctx, func() {}
	}
	id := tc.ids.Add(1)
	start := time.Since(tc.t0)
	return context.WithValue(ctx, opKey{}, id), func() {
		tc.record(span{ID: id, Kind: spanOp, Name: name, Client: true, Start: start, Dur: time.Since(tc.t0) - start})
	}
}

func opOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(opKey{}).(uint64)
	return id
}

// write stores the spans as tab-separated lines under dir.
func (tc *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tphase\tkind\tname\tclient\tstart_ns\tdur_ns\tbytes\titems")
	tc.mu.Lock()
	for _, s := range tc.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%t\t%d\t%d\t%d\t%d\n", s.ID, s.Parent, s.Phase, s.Kind, s.Name, s.Client, s.Start, s.Dur, s.Bytes, s.Items)
	}
	tc.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// tracedTransport is the transport interposer: it embeds the TCP transport
// and times every handler it serves and every call its owner issues.
type tracedTransport struct {
	*tcp.Transport
	tc     *tracer
	client bool
}

// wrapTransport returns tr itself when tc is nil.
func wrapTransport(tr *tcp.Transport, tc *tracer, client bool) transport.Transport {
	if tc == nil {
		return tr
	}
	return &tracedTransport{Transport: tr, tc: tc, client: client}
}

func (t *tracedTransport) handler(h transport.Handler) transport.Handler {
	return func(from transport.Addr, method string, payload any) (any, error) {
		start := time.Since(t.tc.t0)
		resp, err := h(from, method, payload)
		s := span{Kind: spanHandler, Name: method, Client: from == clientID, Start: start, Dur: time.Since(t.tc.t0) - start}
		if seg, ok := resp.(datastore.SegmentResult); ok {
			s.Items = len(seg.Items)
		}
		t.tc.record(s)
		return resp, err
	}
}

func (t *tracedTransport) Register(addr transport.Addr, h transport.Handler) error {
	return t.Transport.Register(addr, t.handler(h))
}

func (t *tracedTransport) Listen(addr transport.Addr, h transport.Handler) (transport.Addr, error) {
	return t.Transport.Listen(addr, t.handler(h))
}

// callSpan records one finished call. Client calls also carry the encoded
// size of request and response; that encode is tracing cost the untraced
// run does not pay.
func (t *tracedTransport) callSpan(ctx context.Context, method string, start time.Duration, payload, resp any) {
	s := span{Kind: spanCall, Name: method, Client: t.client, Parent: opOf(ctx), Start: start, Dur: time.Since(t.tc.t0) - start}
	if t.client {
		if b, err := transport.Encode(payload); err == nil {
			s.Bytes += len(b)
		}
		if resp != nil {
			if b, err := transport.Encode(resp); err == nil {
				s.Bytes += len(b)
			}
		}
	}
	t.tc.record(s)
}

func (t *tracedTransport) Call(ctx context.Context, from, to transport.Addr, method string, payload any) (any, error) {
	start := time.Since(t.tc.t0)
	resp, err := t.Transport.Call(ctx, from, to, method, payload)
	t.callSpan(ctx, method, start, payload, resp)
	return resp, err
}

func (t *tracedTransport) CallAsync(ctx context.Context, from, to transport.Addr, method string, payload any) *transport.Pending {
	start := time.Since(t.tc.t0)
	p := t.Transport.CallAsync(ctx, from, to, method, payload)
	go func() {
		resp, _ := p.Result()
		t.callSpan(ctx, method, start, payload, resp)
	}()
	return p
}

func (t *tracedTransport) Send(from, to transport.Addr, method string, payload any) {
	t.tc.record(span{Kind: spanCall, Name: method, Client: t.client, Start: time.Since(t.tc.t0)})
	t.Transport.Send(from, to, method, payload)
}

// OpenStream times a bulk transfer from open to commit and counts the bytes
// it carries.
func (t *tracedTransport) OpenStream(ctx context.Context, from, to transport.Addr, method string) (transport.Stream, error) {
	start := time.Since(t.tc.t0)
	st, err := t.Transport.OpenStream(ctx, from, to, method)
	if err != nil {
		return nil, err
	}
	return &tracedStream{Stream: st, t: t, method: method, start: start}, nil
}

// tracedStream records one "stream:<method>" call span when the transfer
// commits or aborts.
type tracedStream struct {
	transport.Stream
	t      *tracedTransport
	method string
	start  time.Duration
	bytes  int
	done   atomic.Bool
}

func (s *tracedStream) Chunk(ctx context.Context, data []byte) error {
	s.bytes += len(data)
	return s.Stream.Chunk(ctx, data)
}

func (s *tracedStream) Commit(ctx context.Context) (any, error) {
	resp, err := s.Stream.Commit(ctx)
	s.finish()
	return resp, err
}

func (s *tracedStream) Abort(reason string) {
	s.Stream.Abort(reason)
	s.finish()
}

// Resume keeps the wrapped stream resumable: transport.CallBulk only
// resumes streams that implement transport.Resumer.
func (s *tracedStream) Resume(ctx context.Context) (int, error) {
	r, ok := s.Stream.(transport.Resumer)
	if !ok {
		return 0, fmt.Errorf("perfbench: stream is not resumable")
	}
	return r.Resume(ctx)
}

func (s *tracedStream) finish() {
	if s.done.CompareAndSwap(false, true) {
		tc := s.t.tc
		tc.record(span{Kind: spanCall, Name: "stream:" + s.method, Start: s.start, Dur: time.Since(tc.t0) - s.start, Bytes: s.bytes})
	}
}

// tracedFactory is the storage interposer: every backend it opens times
// Append and measures the WAL bytes each record adds.
type tracedFactory struct {
	storage.Factory
	tc *tracer
}

func wrapFactory(f storage.Factory, tc *tracer) storage.Factory {
	if tc == nil {
		return f
	}
	return tracedFactory{Factory: f, tc: tc}
}

func (f tracedFactory) Open(addr transport.Addr) (storage.Backend, error) {
	b, err := f.Factory.Open(addr)
	if err != nil {
		return nil, err
	}
	return &tracedBackend{Backend: b, tc: f.tc}, nil
}

// tracedBackend serializes its own appends so that the Stats().WALBytes
// delta around one Append is that record's size. A record that triggers a
// snapshot truncates the log; its size is then unknown and recorded as -1.
type tracedBackend struct {
	storage.Backend
	tc *tracer
	mu sync.Mutex
}

func (b *tracedBackend) Append(rec storage.Record) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	before := b.Backend.Stats()
	start := time.Since(b.tc.t0)
	err := b.Backend.Append(rec)
	dur := time.Since(b.tc.t0) - start
	after := b.Backend.Stats()
	n := int(after.WALBytes - before.WALBytes)
	if after.Snapshots != before.Snapshots {
		n = -1
	}
	b.tc.record(span{Kind: spanAppend, Name: rec.Kind.String(), Start: start, Dur: dur, Bytes: n})
	return err
}
