package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"xlate/internal/core"
	"xlate/internal/service"
	"xlate/internal/service/client"
	"xlate/internal/telemetry"
	"xlate/internal/tracec"
	"xlate/internal/vm"
	"xlate/internal/workloads"
)

// scratchDir holds the trace stores of the serve workload's daemons.
var scratchDir = filepath.Join(buildDir, "tmp")

// daemon is one in-process eeatd served on loopback.
type daemon struct {
	srv   *service.Server
	hs    *http.Server
	dir   string
	base  string
	keys  []string // ingested trace keys, by trace index
	serve chan error
}

// startDaemon starts a fresh daemon with an empty result cache and
// trace store, and ingests the recorded traces over HTTP.
func startDaemon(ctx context.Context, s *session, parent int, in serveInputs, hc *http.Client) (*daemon, error) {
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return nil, fmt.Errorf("scratch dir: %w", err)
	}
	dir, err := os.MkdirTemp(scratchDir, "serve-")
	if err != nil {
		return nil, fmt.Errorf("scratch dir: %w", err)
	}
	d := &daemon{dir: dir, serve: make(chan error, 1)}
	store, err := tracec.OpenStore(dir, 0, 0)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d.srv, err = service.New(service.Config{
		Workers:    runtime.NumCPU(),
		TraceStore: store,
		Registry:   telemetry.NewRegistry(),
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("listen: %w", err)
	}
	d.base = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.serve <- d.hs.Serve(ln) }()
	for i, data := range in.Traces {
		sp := s.tr.start("tracec.ingest", parent)
		key, err := ingest(ctx, hc, d.base, data)
		s.tr.end(sp, "bytes", len(data))
		if err != nil {
			return d, fmt.Errorf("ingesting trace %d: %w", i, err)
		}
		d.keys = append(d.keys, key)
	}
	return d, nil
}

// stop shuts the listener, drains the daemon and removes its store.
// The client's idle connections are closed first: the server would
// otherwise wait for connections the transport dialled but never used.
func (d *daemon) stop(hc *http.Client) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	hc.CloseIdleConnections()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.serve; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := d.srv.Drain(ctx); err == nil {
		err = derr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// ingest POSTs an XLTRACE1 stream to /v1/traces and returns its key.
func ingest(ctx context.Context, hc *http.Client, base string, data []byte) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/traces", bytes.NewReader(data))
	if err != nil {
		return "", err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var info tracec.TraceInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return "", fmt.Errorf("decoding ingest reply: %w", err)
	}
	return info.Key, nil
}

// runServe measures eeatd: each round starts a fresh daemon (set-up:
// start + trace ingest), then the clients send the round's request
// sequence closed-loop. Every round sends the same cells to an empty
// cache, in its own seeded order, so rounds are comparable and each
// round's repeats are cache hits. A traced run gives its two phases the
// same orders.
func runServe(ctx context.Context, ps phases, budget time.Duration) error {
	clients := runtime.NumCPU()
	in, err := makeServeInputs(ps[0].seed)
	if err != nil {
		return err
	}
	want, err := traceKeys(in)
	if err != nil {
		return err
	}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer hc.CloseIdleConnections()

	if err := ps.repeat(budget, func(n int, s *session) error {
		return serveRound(ctx, s, in, in.round(n/len(ps)), clients, hc, want)
	}); err != nil {
		return err
	}
	if t := ps.traced(); t != nil {
		serveLayers(t)
	}
	return nil
}

// traceKeys returns the content key each recorded trace must ingest
// under.
func traceKeys(in serveInputs) ([]string, error) {
	var keys []string
	for i, data := range in.Traces {
		seg, _, err := tracec.Ingest(data)
		if err != nil {
			return nil, fmt.Errorf("trace %d: %w", i, err)
		}
		keys = append(keys, tracec.ContentKey(seg))
	}
	return keys, nil
}

func serveRound(ctx context.Context, s *session, in serveInputs, seq []serveRequest, clients int, hc *http.Client, want []string) error {
	root := s.tr.start("serve.round", 0)
	t0 := time.Now()
	st := s.tr.start("serve.setup", root)
	d, err := startDaemon(ctx, s, st, in, hc)
	s.tr.end(st)
	if err != nil {
		if d != nil {
			d.stop(hc) //nolint:errcheck // the set-up error is the one reported
		}
		return fmt.Errorf("serve set-up: %w", err)
	}
	s.sample("setup_s", time.Since(t0).Seconds())
	for i, k := range d.keys {
		if k != want[i] {
			s.fail("trace %d ingested as %s, want its content key %s", i, k, want[i])
		}
	}

	c := client.New(d.base)
	c.HTTP = hc
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
		refs uint64
		reqs int
	)
	done := make([]chan struct{}, len(seq))
	for i := range done {
		done[i] = make(chan struct{})
	}
	r0 := time.Now()
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(seq) {
					return
				}
				r := seq[i]
				if r.Repeat {
					<-done[r.Of] // taken earlier, it never waits on a later request
				}
				n := serveRequestOnce(ctx, s, root, c, in, d.keys, r)
				close(done[i])
				mu.Lock()
				refs += n
				reqs++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(r0).Seconds()
	s.tr.end(root)
	s.sample("wall_s", wall)
	s.sample("cells_per_s", float64(reqs)/wall)
	s.sample("mrefs_per_s", float64(refs)/1e6/wall)
	if err := d.stop(hc); err != nil {
		return fmt.Errorf("serve: stopping daemon: %w", err)
	}
	return nil
}

// serveRequestOnce sends one cell request and returns the references
// the daemon simulated for it (0 for a cache hit).
func serveRequestOnce(ctx context.Context, s *session, parent int, c *client.Client, in serveInputs, keys []string, r serveRequest) uint64 {
	workload := r.Workload
	if i, ok := traceIndex(r.Workload); ok {
		workload = tracec.WorkloadName(keys[i])
	}
	req := service.SubmitRequest{Workload: workload, Config: r.Config, Instrs: serveInstrs, Scale: benchScale, Seed: in.Seed}
	t0 := time.Now()
	out, st, err := c.RunCell(ctx, req)
	t1 := time.Now()
	s.sample("cell_ms", ms(t1.Sub(t0)))
	// A submission answered from the cache carries no execution timing;
	// a fresh job's status may also say Cached when it finished before
	// the client's wait, but it reports the execution's timing.
	hit := st.Cached && st.QueueSeconds == 0 && st.ExecSeconds == 0
	s.tr.add("serve.request", parent, t0, t1, "hit", hit, "deduped", st.Deduped,
		"queue_ms", st.QueueSeconds*1e3, "exec_ms", st.ExecSeconds*1e3)
	if err != nil {
		s.op(fmt.Errorf("request %s: %w", r.label(), err))
		return 0
	}
	s.cell(r.label(), out.Result, nil)
	if r.Repeat && !hit {
		s.fail("repeat of %s was not served from the result cache", r.label())
	}
	if hit {
		return 0
	}
	return out.Result.MemRefs
}

func traceIndex(label string) (int, bool) {
	var i int
	if _, err := fmt.Sscanf(label, "trace%d", &i); err != nil {
		return 0, false
	}
	return i, true
}

// serveLayers derives the service-layer metrics from the traced
// requests.
func serveLayers(s *session) {
	var queue, exec, overhead, hits []float64
	var n, nHit, nDedup float64
	for _, sp := range s.tr.named("serve.request") {
		n++
		nDedup += sp.Attrs["deduped"]
		if sp.Attrs["hit"] == 1 {
			nHit++
			hits = append(hits, sp.dur()/1e3)
			continue
		}
		q, e := sp.Attrs["queue_ms"], sp.Attrs["exec_ms"]
		queue = append(queue, q)
		exec = append(exec, e)
		overhead = append(overhead, sp.dur()/1e3-q-e)
	}
	s.layer["service.queue_ms_p50"] = median(queue)
	s.layer["service.exec_ms_p50"] = median(exec)
	s.layer["service.overhead_ms_p50"] = median(overhead)
	s.layer["service.hit_ms_p50"] = median(hits)
	s.layer["service.cache_hit_ratio"] = nHit / n
	s.layer["service.dedup_ratio"] = nDedup / n
	s.layer["tracec.ingest_ms"] = median(s.tr.durationsMS("tracec.ingest"))
}

// checkServeDirect runs a seeded sample of the served cells — two
// model cells and one ingested-trace cell — directly through core and
// checks the daemon's payloads against them.
func checkServeDirect(ctx context.Context, s *session) error {
	in, err := makeServeInputs(s.seed)
	if err != nil {
		return err
	}
	var models, traces []serveRequest
	for _, r := range in.round(0) {
		if r.Repeat {
			continue
		}
		if _, ok := traceIndex(r.Workload); ok {
			traces = append(traces, r)
		} else {
			models = append(models, r)
		}
	}
	rng := rand.New(rand.NewSource(s.seed ^ 0xc0de))
	sample := []serveRequest{models[rng.Intn(len(models))], models[rng.Intn(len(models))], traces[rng.Intn(len(traces))]}
	for _, r := range sample {
		res, err := directCell(ctx, in, r)
		s.op(err)
		if err != nil {
			continue
		}
		s.mu.Lock()
		served, ok := s.results[r.label()]
		s.mu.Unlock()
		if !ok || served != digest(res) {
			s.fail("served %s differs from a direct core run of the same cell", r.label())
		}
	}
	return nil
}

// directCell simulates a serve cell without the daemon: a model cell
// as exper.ExecuteJobContext builds it, a trace cell as a demand-paged
// replay of the ingested segment.
func directCell(ctx context.Context, in serveInputs, r serveRequest) (core.Result, error) {
	var kind core.ConfigKind
	for _, k := range core.AllConfigs() {
		if k.String() == r.Config {
			kind = k
		}
	}
	p := core.DefaultParams(kind)
	policy := core.PolicyFor(kind, 0.5)
	if i, ok := traceIndex(r.Workload); ok {
		data, _, err := tracec.Ingest(in.Traces[i])
		if err != nil {
			return core.Result{}, err
		}
		seg, err := tracec.Validate(data)
		if err != nil {
			return core.Result{}, err
		}
		p.DemandPaging = true
		sim, err := core.NewSimulator(p, vm.New(vm.Config{Policy: policy, Seed: in.Seed, PhysBytes: 64 << 30}))
		if err != nil {
			return core.Result{}, err
		}
		return sim.RunContext(ctx, seg.Replay(), serveInstrs)
	}
	spec, ok := workloads.ByName(r.Workload)
	if !ok {
		return core.Result{}, fmt.Errorf("no workload %q", r.Workload)
	}
	as, gen, err := spec.Build(workloads.BuildOptions{Policy: policy, Seed: in.Seed, Scale: benchScale})
	if err != nil {
		return core.Result{}, err
	}
	sim, err := core.NewSimulator(p, as)
	if err != nil {
		return core.Result{}, err
	}
	return sim.RunContext(ctx, gen, serveInstrs)
}
