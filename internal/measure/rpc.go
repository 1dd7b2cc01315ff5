package measure

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"sort"
	"sync"
	"time"

	"github.com/neuralcompile/glimpse/internal/gpusim"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/telemetry"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// DefaultDialTimeout bounds connection establishment and the handshake
// List call in Dial; unroutable addresses fail instead of hanging.
const DefaultDialTimeout = 5 * time.Second

// ErrDraining is returned to new measurement requests while the server is
// shutting down gracefully.
var ErrDraining = errors.New("measure: server draining")

// MeasureArgs is the RPC request: a task identified by (model, 1-based
// index) plus the configuration indices to run on the named device.
// Trace carries the caller's span context across the wire so the server
// can record its side of the batch under the same trace; a zero Trace is
// omitted from the gob stream entirely, keeping the wire byte-compatible
// with pre-trace peers (gob also ignores the field when a new client
// talks to an old server).
type MeasureArgs struct {
	Device    string
	Model     string
	TaskIndex int
	Indices   []int64
	Trace     telemetry.SpanContext
}

// MeasureReply carries the measurement results back.
type MeasureReply struct {
	Results []gpusim.Result
}

// ListReply names the devices a measurement server hosts.
type ListReply struct {
	Devices []string
}

// PingReply is the health-check response.
type PingReply struct {
	OK       bool
	Devices  int // hosted device count
	InFlight int // measurement batches currently executing
	Draining bool
}

// Server hosts simulated GPUs behind net/rpc, standing in for the paper's
// RPC-attached measurement boards. Each hosted device is an arbitrary
// Measurer backend (a plain simulator by default), so wrappers — fault
// injection, chaos schedules, logging — compose on the serving side too.
type Server struct {
	mu       sync.Mutex
	backends map[string]Measurer
	tracer   *telemetry.Tracer
	ln       net.Listener
	conns    map[net.Conn]struct{}
	inflight int
	draining bool
	batches  int64 // measurement batches served since start
	configs  int64 // configuration points measured since start
}

// ServerStats is a point-in-time snapshot of server activity, exposed on
// the /telemetryz debug endpoint of cmd/measured.
type ServerStats struct {
	Batches  int64 `json:"batches"`
	Configs  int64 `json:"configs"`
	InFlight int   `json:"in_flight"`
	Draining bool  `json:"draining"`
}

// Stats snapshots cumulative serving counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ServerStats{Batches: s.batches, Configs: s.configs, InFlight: s.inflight, Draining: s.draining}
}

// NewServer builds a server hosting a plain simulator per named GPU.
func NewServer(gpuNames []string) (*Server, error) {
	return NewServerWrapped(gpuNames, nil)
}

// NewServerWrapped builds a server whose i-th device backend is
// wrap(i, gpu, simulator). A nil wrap (or a nil return) hosts the plain
// simulator — this is how cmd/measured layers chaos schedules onto the
// boards it serves.
func NewServerWrapped(gpuNames []string, wrap func(i int, gpu string, m Measurer) Measurer) (*Server, error) {
	s := &Server{backends: make(map[string]Measurer, len(gpuNames))}
	for i, name := range gpuNames {
		local, err := NewLocal(name)
		if err != nil {
			return nil, err
		}
		var m Measurer = local
		if wrap != nil {
			if w := wrap(i, name, m); w != nil {
				m = w
			}
		}
		s.backends[name] = m
	}
	return s, nil
}

// SetTracer installs the tracer that records this server's side of each
// measurement batch (an "rpc_measure" span, parented into the caller's
// trace when the request carries one). Install before Serve; the field
// is read under the server mutex, so a late install is safe but may miss
// batches already in flight.
func (s *Server) SetTracer(tr *telemetry.Tracer) {
	s.mu.Lock()
	s.tracer = tr
	s.mu.Unlock()
}

// Measure is the RPC method: it resolves the task, rebuilds its space, and
// measures every requested index.
func (s *Server) Measure(args MeasureArgs, reply *MeasureReply) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ErrDraining
	}
	s.inflight++
	s.batches++
	s.configs += int64(len(args.Indices))
	m, ok := s.backends[args.Device]
	tracer := s.tracer
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.inflight--
		s.mu.Unlock()
	}()
	if !ok {
		return fmt.Errorf("measure: server does not host device %q", args.Device)
	}
	span, _ := tracer.StartSpan(args.Trace, telemetry.StageRPCMeasure)
	span.SetAttr("device", args.Device)
	span.SetAttr("model", args.Model)
	span.SetAttr("task", args.TaskIndex)
	span.SetAttr("batch", len(args.Indices))
	defer span.End()
	task, err := workload.TaskByIndex(args.Model, args.TaskIndex)
	if err != nil {
		return err
	}
	sp, err := space.ForTask(task)
	if err != nil {
		return err
	}
	for _, idx := range args.Indices {
		if idx < 0 || idx >= sp.Size() {
			return fmt.Errorf("measure: index %d out of space [0, %d)", idx, sp.Size())
		}
	}
	reply.Results, err = m.MeasureBatch(task, sp, args.Indices)
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	return err
}

// List is the RPC method returning hosted device names, sorted so client
// logs are reproducible across runs.
func (s *Server) List(_ struct{}, reply *ListReply) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name := range s.backends {
		reply.Devices = append(reply.Devices, name)
	}
	sort.Strings(reply.Devices)
	return nil
}

// Ping is the health-check RPC: cheap, side-effect free, and answered even
// while draining (so fleet monitors can watch a shutdown complete).
func (s *Server) Ping(_ struct{}, reply *PingReply) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	reply.OK = !s.draining
	reply.Devices = len(s.backends)
	reply.InFlight = s.inflight
	reply.Draining = s.draining
	return nil
}

// Serve starts listening on addr (e.g. "127.0.0.1:0") and serves until the
// listener is closed. It returns the bound address.
func (s *Server) Serve(addr string) (string, error) {
	srv := rpc.NewServer()
	if err := srv.RegisterName("Measure", s); err != nil {
		return "", err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.conns = make(map[net.Conn]struct{})
	//glint:ignore leakcheck -- accept loop exits when Close/DrainAndClose closes the listener
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			s.mu.Lock()
			if s.conns == nil { // closed concurrently
				s.mu.Unlock()
				_ = conn.Close() // teardown; the close error is uninteresting
				return
			}
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			//glint:ignore leakcheck -- per-conn server exits when Close/DrainAndClose severs the connection
			go func() {
				srv.ServeConn(conn)
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// DrainAndClose shuts down gracefully: it stops accepting connections,
// rejects new measurement batches with ErrDraining, waits for in-flight
// batches to finish or the context to expire, then severs the remaining
// connections. Callers bound the drain with context.WithTimeout.
func (s *Server) DrainAndClose(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for done := false; !done; {
		s.mu.Lock()
		n := s.inflight
		s.mu.Unlock()
		if n == 0 {
			break
		}
		select {
		case <-ctx.Done():
			done = true
		case <-time.After(2 * time.Millisecond):
		}
	}
	s.mu.Lock()
	for conn := range s.conns {
		_ = conn.Close() // teardown; the close error is uninteresting
	}
	s.conns = nil
	s.mu.Unlock()
	return err
}

// InFlight reports how many measurement batches are currently executing.
func (s *Server) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// Close stops the listener and severs every established connection, so
// in-flight clients see errors instead of a silently half-alive server.
func (s *Server) Close() error {
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.mu.Lock()
	for conn := range s.conns {
		_ = conn.Close() // teardown; the close error is uninteresting
	}
	s.conns = nil
	s.mu.Unlock()
	return err
}

// Remote is a Measurer backed by a measurement server over net/rpc.
type Remote struct {
	client *rpc.Client
	device string

	traceMu sync.Mutex
	trace   telemetry.SpanContext // stamped onto MeasureArgs until rebound
}

// BindTrace attaches sc to subsequent measurement RPCs (TraceBinder).
func (r *Remote) BindTrace(sc telemetry.SpanContext) {
	r.traceMu.Lock()
	r.trace = sc
	r.traceMu.Unlock()
}

func (r *Remote) boundTrace() telemetry.SpanContext {
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	return r.trace
}

// Dial connects to a measurement server and binds to one of its devices,
// applying DefaultDialTimeout to both connection setup and the handshake.
func Dial(addr, device string) (*Remote, error) {
	return DialTimeout(addr, device, DefaultDialTimeout)
}

// DialTimeout is Dial with an explicit bound. Unroutable addresses (which
// blackhole SYNs rather than refusing them) and servers that accept but
// never answer both fail within roughly the timeout.
func DialTimeout(addr, device string, timeout time.Duration) (*Remote, error) {
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	//glint:ignore ctxflow -- compat shim: the timeout-based dial API predates ctx plumbing and the root is bounded by the timeout
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return DialContext(ctx, addr, device)
}

// DialContext is Dial bounded by a caller-supplied context: both the TCP
// connect and the handshake List call respect ctx's deadline and
// cancellation.
func DialContext(ctx context.Context, addr, device string) (*Remote, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	// Bound the handshake List call; the deadline is lifted once bound.
	handshake := time.Now().Add(DefaultDialTimeout)
	if dl, ok := ctx.Deadline(); ok {
		handshake = dl
	}
	if err := conn.SetDeadline(handshake); err != nil {
		_ = conn.Close() // teardown; the close error is uninteresting
		return nil, err
	}
	client := rpc.NewClient(conn)
	var listed ListReply
	if err := client.Call("Measure.List", struct{}{}, &listed); err != nil {
		_ = client.Close() // already failing; the dial error wins
		return nil, err
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		_ = client.Close() // already failing; the dial error wins
		return nil, err
	}
	for _, name := range listed.Devices {
		if name == device {
			return &Remote{client: client, device: device}, nil
		}
	}
	_ = client.Close() // already failing; the dial error wins
	return nil, fmt.Errorf("measure: server at %s does not host %q (has %v)", addr, device, listed.Devices)
}

// MeasureBatch measures remotely.
func (r *Remote) MeasureBatch(task workload.Task, sp *space.Space, idxs []int64) ([]gpusim.Result, error) {
	//glint:ignore ctxflow -- compat shim: the Measurer interface is ctx-less; the fleet threads a real ctx via MeasureBatchContext
	return r.MeasureBatchContext(context.Background(), task, sp, idxs)
}

// MeasureBatchContext measures remotely, abandoning the in-flight RPC when
// the context expires — this is what stops a half-open connection to a dead
// board from hanging a tuning session forever. The asynchronous call is
// issued with rpc.Client.Go so cancellation does not wait on the wire.
func (r *Remote) MeasureBatchContext(ctx context.Context, task workload.Task, sp *space.Space, idxs []int64) ([]gpusim.Result, error) {
	args := MeasureArgs{Device: r.device, Model: task.Model, TaskIndex: task.Index, Indices: idxs, Trace: r.boundTrace()}
	var reply MeasureReply
	call := r.client.Go("Measure.Measure", args, &reply, make(chan *rpc.Call, 1))
	select {
	case <-ctx.Done():
		return nil, fmt.Errorf("measure: remote batch on %s: %w", r.device, ctx.Err())
	case done := <-call.Done:
		if done.Error != nil {
			return nil, done.Error
		}
		return reply.Results, nil
	}
}

// PingContext health-checks the server this Remote is connected to,
// bounded by ctx; the in-flight RPC is abandoned when ctx expires.
func (r *Remote) PingContext(ctx context.Context) (PingReply, error) {
	var reply PingReply
	call := r.client.Go("Measure.Ping", struct{}{}, &reply, make(chan *rpc.Call, 1))
	select {
	case <-ctx.Done():
		return reply, ctx.Err()
	case done := <-call.Done:
		return reply, done.Error
	}
}

// DeviceName identifies the remote GPU.
func (r *Remote) DeviceName() string { return r.device }

// Close releases the RPC connection.
func (r *Remote) Close() error { return r.client.Close() }
