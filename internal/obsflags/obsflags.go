// Package obsflags bundles the command-line surface the binaries
// share, so each flag is declared once. Register declares the
// observability block: event tracing (-trace-out/-trace-sample), the
// live status endpoint (-status-addr), and the profiling hooks
// (-cpuprofile/-memprofile/-pprof-addr). RegisterSim declares the
// integrity block (-audit, -audit-sample, -inject) of the two
// simulating binaries. Every binary drives the same lifecycle, so a run
// behaves the same whichever entry point it uses.
package obsflags

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	rpprof "runtime/pprof"
	"time"

	"xlate/internal/telemetry"
)

// Flags holds the parsed observability options.
type Flags struct {
	TraceOut    string
	TraceSample uint64
	StatusAddr  string
	PprofAddr   string
	CPUProfile  string
	MemProfile  string
}

// Register declares the shared flags on the default flag set and
// returns the value struct Parse will fill.
func Register() *Flags {
	f := &Flags{}
	flag.StringVar(&f.TraceOut, "trace-out", "", "write a sampled structured event trace to this file (.json/.trace = Chrome trace_event, else JSONL)")
	flag.Uint64Var(&f.TraceSample, "trace-sample", 64, "trace every Nth hot-path event (misses, walks, range hits); rare events always trace")
	flag.StringVar(&f.StatusAddr, "status-addr", "", "serve /metrics (Prometheus) and /status (JSON) on this address while running, e.g. localhost:9090")
	flag.StringVar(&f.PprofAddr, "pprof-addr", "", "serve net/http/pprof on this address while running")
	flag.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file at exit")
	return f
}

// Session is the running observability state opened from the flags.
// Fields are nil when the corresponding flag was not set.
type Session struct {
	Registry *telemetry.Registry
	Tracer   *telemetry.Tracer

	traceFile *os.File
	server    *telemetry.Server
	pprofSrv  *http.Server
	cpuFile   *os.File
	memPath   string
	logf      func(format string, args ...any)
}

// Start opens everything the flags ask for. status feeds the /status
// endpoint (may be nil); logf receives one line per endpoint started
// (may be nil). Always returns a non-nil Session with a Registry, so
// callers can unconditionally wire metrics; Close releases whatever was
// opened, in reverse order.
func (f *Flags) Start(status func() any, logf func(format string, args ...any)) (*Session, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Session{Registry: telemetry.NewRegistry(), memPath: f.MemProfile, logf: logf}
	if f.TraceOut != "" {
		file, err := os.Create(f.TraceOut)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("obsflags: trace output: %w", err)
		}
		sample := f.TraceSample
		if sample == 0 {
			sample = 1
		}
		s.traceFile = file
		s.Tracer = telemetry.NewTracer(file, telemetry.FormatForPath(f.TraceOut), sample)
	}
	if f.StatusAddr != "" {
		srv, err := telemetry.NewServer(f.StatusAddr, s.Registry, status)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.server = srv
		logf("status endpoint on http://%s (/metrics, /status)", srv.Addr())
	}
	if f.PprofAddr != "" {
		ln, err := net.Listen("tcp", f.PprofAddr)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("obsflags: pprof listen %s: %w", f.PprofAddr, err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		s.pprofSrv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go s.pprofSrv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
		logf("pprof on http://%s/debug/pprof/", ln.Addr())
	}
	if f.CPUProfile != "" {
		file, err := os.Create(f.CPUProfile)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("obsflags: cpu profile: %w", err)
		}
		if err := rpprof.StartCPUProfile(file); err != nil {
			file.Close()
			s.Close()
			return nil, fmt.Errorf("obsflags: cpu profile: %w", err)
		}
		s.cpuFile = file
	}
	return s, nil
}

// Shutdown is the graceful-drain counterpart of Close: the status and
// pprof listeners stop accepting and wait (bounded by ctx) for
// in-flight requests — a scrape racing a drain completes instead of
// being dropped mid-body — then the rest of the session closes as
// Close does.
func (s *Session) Shutdown(ctx context.Context) error {
	var first error
	if s.server != nil {
		if err := s.server.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
		s.server = nil
	}
	if s.pprofSrv != nil {
		if err := s.pprofSrv.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
		s.pprofSrv = nil
	}
	if err := s.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// Close flushes the trace, stops the servers and profiles, and writes
// the heap profile. The first error wins; later cleanups still run.
func (s *Session) Close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.cpuFile != nil {
		rpprof.StopCPUProfile()
		keep(s.cpuFile.Close())
		s.cpuFile = nil
	}
	if s.memPath != "" {
		keep(s.writeHeapProfile())
		s.memPath = ""
	}
	if s.pprofSrv != nil {
		keep(s.pprofSrv.Close())
		s.pprofSrv = nil
	}
	if s.server != nil {
		keep(s.server.Close())
		s.server = nil
	}
	if s.Tracer != nil {
		keep(s.Tracer.Close())
		if s.logf != nil {
			s.logf("trace: %d events written", s.Tracer.Events())
		}
		s.Tracer = nil
	}
	if s.traceFile != nil {
		keep(s.traceFile.Close())
		s.traceFile = nil
	}
	return first
}

func (s *Session) writeHeapProfile() error {
	file, err := os.Create(s.memPath)
	if err != nil {
		return fmt.Errorf("obsflags: heap profile: %w", err)
	}
	runtime.GC() // materialize up-to-date allocation stats
	if err := rpprof.WriteHeapProfile(file); err != nil {
		file.Close()
		return fmt.Errorf("obsflags: heap profile: %w", err)
	}
	return file.Close()
}
