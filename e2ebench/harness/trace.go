package harness

import (
	"bytes"
	"context"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"lemonade/internal/fault"
	"lemonade/internal/registry"
)

// Span layers. Each names the module whose public seam the span wraps.
const (
	spanClient     = "api.client"      // harness around one api call
	spanTransport  = "api.transport"   // http.RoundTripper, send to body close
	spanHandler    = "server.handler"  // http.Handler on the node
	spanAppend     = "registry.append" // registry.Store.Append
	spanCommitWait = "registry.commit" // registry.Ticket.Wait
	spanApply      = "registry.apply"  // Wait returned → Ticket.Done
	spanFsync      = "wal.fsync"       // fault.File.Sync on a WAL segment
	spanSnapshot   = "wal.snapshot"    // DiskStore.Snapshot
)

// Headers that carry the harness's request identity from the client-side
// transport wrapper to the node-side handler wrapper.
const (
	hdrSeq  = "X-Bench-Seq"
	hdrArch = "X-Bench-Arch"
)

// Span is one timed call at a layer boundary.
type Span struct {
	Layer      string
	Seq        int64  // harness request sequence number; -1 when unknown
	Arch       string // architecture (or cluster) ID where the seam exposes it
	Node       string // serving node, for transport and handler spans
	Route      string // last path element of HTTP spans, e.g. "access"
	Start, End int64
	N          int64 // records, for appends
	Err        bool
	Maint      bool // append carries remap/retire maintenance records
}

// Tracer keeps spans in memory until the run ends.
type Tracer struct {
	now func() int64

	mu    sync.Mutex
	spans []Span // guarded by mu

	// goSeq maps a serving goroutine to the request it serves, so store
	// spans — whose seam carries no context — link to their request.
	goMu  sync.Mutex
	goSeq map[uint64]int64 // guarded by goMu

	walBytes  atomic.Int64 // bytes written to WAL segments
	snapBytes atomic.Int64 // bytes written to every other file
}

// NewTracer returns an empty tracer reading clock now.
func NewTracer(now func() int64) *Tracer {
	return &Tracer{now: now, goSeq: make(map[uint64]int64)}
}

func (t *Tracer) add(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of every span recorded so far.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// bind records that the calling goroutine now serves seq; unbind ends it.
func (t *Tracer) bind(seq int64) uint64 {
	id := goid()
	t.goMu.Lock()
	t.goSeq[id] = seq
	t.goMu.Unlock()
	return id
}

func (t *Tracer) unbind(id uint64) {
	t.goMu.Lock()
	delete(t.goSeq, id)
	t.goMu.Unlock()
}

// currentSeq is the request the calling goroutine serves, or -1.
func (t *Tracer) currentSeq() int64 {
	id := goid()
	t.goMu.Lock()
	defer t.goMu.Unlock()
	if seq, ok := t.goSeq[id]; ok {
		return seq
	}
	return -1
}

// goid parses the calling goroutine's ID from its stack header
// ("goroutine 42 [running]:"). The runtime exposes no cheaper handle, and
// the store seam passes no context to carry a request identity.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// ctxKey carries a request identity through the client into the
// transport wrapper.
type ctxKey struct{}

type reqIdentity struct {
	seq  int64
	arch string
}

// withRequest tags ctx with the harness's sequence number and
// architecture ID for the tracing transport.
func withRequest(ctx context.Context, seq int64, arch string) context.Context {
	return context.WithValue(ctx, ctxKey{}, reqIdentity{seq: seq, arch: arch})
}

func requestOf(ctx context.Context) (reqIdentity, bool) {
	id, ok := ctx.Value(ctxKey{}).(reqIdentity)
	return id, ok
}

// routeOf names an API route by its last path element.
func routeOf(path string) string {
	return path[strings.LastIndexByte(path, '/')+1:]
}

// traceTransport wraps the client's http.RoundTripper: it stamps the
// request identity into headers and records a span from send to the
// response body's close.
type traceTransport struct {
	next http.RoundTripper
	t    *Tracer
	node func(host string) string
}

func (tt *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, ok := requestOf(req.Context())
	if !ok {
		return tt.next.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(hdrSeq, strconv.FormatInt(id.seq, 10))
	req.Header.Set(hdrArch, id.arch)
	sp := Span{Layer: spanTransport, Seq: id.seq, Arch: id.arch, Node: tt.node(req.URL.Host),
		Route: routeOf(req.URL.Path), Start: tt.t.now()}
	resp, err := tt.next.RoundTrip(req)
	if err != nil {
		sp.End, sp.Err = tt.t.now(), true
		tt.t.add(sp)
		return nil, err
	}
	sp.Err = resp.StatusCode != http.StatusOK
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tt.t, sp: sp}
	return resp, nil
}

// spanBody ends its transport span when the client closes the body.
type spanBody struct {
	io.ReadCloser
	t    *Tracer
	sp   Span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.sp.End = b.t.now()
		b.t.add(b.sp)
	})
	return err
}

// traceHandler wraps a node's http.Handler and binds the serving
// goroutine to the request so the store spans below it link back.
type traceHandler struct {
	next http.Handler
	t    *Tracer
	node string
}

func (th *traceHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	seqHdr := r.Header.Get(hdrSeq)
	if seqHdr == "" {
		th.next.ServeHTTP(w, r)
		return
	}
	seq, _ := strconv.ParseInt(seqHdr, 10, 64)
	gid := th.t.bind(seq)
	sp := Span{Layer: spanHandler, Seq: seq, Arch: r.Header.Get(hdrArch), Node: th.node,
		Route: routeOf(r.URL.Path), Start: th.t.now()}
	rec := &codeRecorder{ResponseWriter: w, code: http.StatusOK}
	th.next.ServeHTTP(rec, r)
	sp.End = th.t.now()
	sp.Err = rec.code != http.StatusOK
	th.t.unbind(gid)
	th.t.add(sp)
}

// codeRecorder captures the status the handler wrote.
type codeRecorder struct {
	http.ResponseWriter
	code int
}

func (c *codeRecorder) WriteHeader(code int) {
	c.code = code
	c.ResponseWriter.WriteHeader(code)
}

// traceStore wraps the registry's registry.Store: Append, the ticket's
// Wait, and the Wait→Done apply stage each become a span.
type traceStore struct {
	next registry.Store
	t    *Tracer
	node string
}

func (ts *traceStore) Append(recs []registry.Record) (registry.Ticket, error) {
	sp := Span{Layer: spanAppend, Seq: ts.t.currentSeq(), Arch: recordArch(recs), Node: ts.node,
		N: int64(len(recs)), Start: ts.t.now()}
	for _, r := range recs {
		if r.Remap != nil || r.Retire != nil {
			sp.Maint = true
		}
	}
	tkt, err := ts.next.Append(recs)
	sp.End, sp.Err = ts.t.now(), err != nil
	ts.t.add(sp)
	if err != nil {
		return nil, err
	}
	return &traceTicket{next: tkt, t: ts.t, span: sp}, nil
}

// recordArch is the architecture ID a record batch mutates.
func recordArch(recs []registry.Record) string {
	if len(recs) == 0 {
		return ""
	}
	r := recs[0]
	switch {
	case r.Access != nil:
		return r.Access.ID
	case r.Stress != nil:
		return r.Stress.ID
	case r.Provision != nil:
		return r.Provision.ID
	case r.Remap != nil:
		return r.Remap.ID
	case r.Retire != nil:
		return r.Retire.ID
	}
	return ""
}

// traceTicket times the commit wait and the apply stage of one Append;
// span is the Append's span, whose identity both inherit.
type traceTicket struct {
	next   registry.Ticket
	t      *Tracer
	span   Span
	waited int64
}

func (tk *traceTicket) Wait() error {
	sp := tk.span
	sp.Layer, sp.Start = spanCommitWait, tk.t.now()
	err := tk.next.Wait()
	tk.waited = tk.t.now()
	sp.End, sp.Err = tk.waited, err != nil
	tk.t.add(sp)
	return err
}

func (tk *traceTicket) Done() {
	sp := tk.span
	sp.Layer, sp.Start, sp.End, sp.Err = spanApply, tk.waited, tk.t.now(), false
	tk.t.add(sp)
	tk.next.Done()
}

// traceFS wraps the WAL's fault.FS: fsyncs become spans and written bytes
// are counted, split between log segments and everything else
// (snapshots, their temp files, the directory).
type traceFS struct {
	next fault.FS
	t    *Tracer
}

func isSegment(name string) bool {
	base := filepath.Base(name)
	return strings.HasPrefix(base, "wal-") && strings.HasSuffix(base, ".log")
}

func (tf *traceFS) wrap(name string, f fault.File) fault.File {
	return &traceFile{next: f, t: tf.t, segment: isSegment(name)}
}

func (tf *traceFS) MkdirAll(path string, perm os.FileMode) error { return tf.next.MkdirAll(path, perm) }

func (tf *traceFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	f, err := tf.next.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return tf.wrap(name, f), nil
}

func (tf *traceFS) Open(name string) (fault.File, error) {
	f, err := tf.next.Open(name)
	if err != nil {
		return nil, err
	}
	return tf.wrap(name, f), nil
}

func (tf *traceFS) ReadDir(name string) ([]fs.DirEntry, error) { return tf.next.ReadDir(name) }
func (tf *traceFS) ReadFile(name string) ([]byte, error)       { return tf.next.ReadFile(name) }
func (tf *traceFS) Remove(name string) error                   { return tf.next.Remove(name) }
func (tf *traceFS) Rename(oldpath, newpath string) error       { return tf.next.Rename(oldpath, newpath) }
func (tf *traceFS) Truncate(name string, size int64) error     { return tf.next.Truncate(name, size) }

type traceFile struct {
	next    fault.File
	t       *Tracer
	segment bool
}

func (f *traceFile) Write(p []byte) (int, error) {
	n, err := f.next.Write(p)
	if f.segment {
		f.t.walBytes.Add(int64(n))
	} else {
		f.t.snapBytes.Add(int64(n))
	}
	return n, err
}

// Sync times fsyncs of WAL segments; snapshot writes are timed whole by
// the snapshot loop.
func (f *traceFile) Sync() error {
	if !f.segment {
		return f.next.Sync()
	}
	sp := Span{Layer: spanFsync, Seq: -1, Start: f.t.now()}
	err := f.next.Sync()
	sp.End, sp.Err = f.t.now(), err != nil
	f.t.add(sp)
	return err
}

func (f *traceFile) Truncate(size int64) error  { return f.next.Truncate(size) }
func (f *traceFile) Stat() (os.FileInfo, error) { return f.next.Stat() }
func (f *traceFile) Close() error               { return f.next.Close() }
