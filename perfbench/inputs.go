package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"xlate/internal/core"
	"xlate/internal/trace"
	"xlate/internal/workloads"
)

// defaultSeed is the seed the committed reference values (refs.json)
// were recorded at.
const defaultSeed = 1

// simSeed derives the seed handed to the simulated workloads from the
// benchmark seed, so the program only ever sees generated inputs.
func simSeed(seed int64) int64 {
	return rand.New(rand.NewSource(seed)).Int63n(1<<31) + 1
}

// Sizes. Scale 0.1 keeps the hit/walk separation of the replay
// workloads (every replay-hit cell hits the L1 at >= 0.96) and
// matches the committed fig2 golden's footprint. Replay and serve
// cells are long enough (~100 ms) that the short stalls of a shared
// host average out within a cell; shorter cells made the cell latency
// p95 swing by half from run to run.
const (
	fig2Instrs   = 400_000
	replayInstrs = 2_000_000
	serveInstrs  = 1_000_000
	benchScale   = 0.1

	traceRefs  = 100_000 // references per recorded trace
	repeatGap  = 4       // a repeat comes at least this many requests after its original
	serveShare = 4       // one request in serveShare repeats an earlier cell
)

var (
	replayModels = []string{"mcf", "cactusADM"}
	hitConfigs   = []core.ConfigKind{core.CfgTLBLite, core.CfgTLBPP, core.CfgRMMLite}
	walkConfigs  = []core.ConfigKind{core.Cfg4KB}

	serveModels      = []string{"mcf", "cactusADM", "astar"}
	traceSourceSpecs = []string{"omnetpp", "canneal"}
)

// serveRequest is one cell request of the serve workload. Workload is
// a model name or a trace label ("trace0", "trace1") resolved to the
// ingested key at run time. A repeat names the position of its
// original in the round's sequence.
type serveRequest struct {
	Workload string
	Config   string
	Repeat   bool
	Of       int // position of the original, for a repeat
}

func (r serveRequest) label() string { return r.Workload + "/" + r.Config }

// serveInputs is everything the serve workload sends.
type serveInputs struct {
	Seed   int64    // simulation seed of every cell
	Traces [][]byte // XLTRACE1 recordings, ingested at set-up
	order  int64    // seeds the rounds' request orders
}

// makeServeInputs generates the traces; round gives the request
// sequences.
func makeServeInputs(seed int64) (serveInputs, error) {
	in := serveInputs{Seed: simSeed(seed), order: seed ^ 0x5e7e}
	for i, name := range traceSourceSpecs {
		b, err := recordTrace(name, in.Seed+int64(i))
		if err != nil {
			return serveInputs{}, err
		}
		in.Traces = append(in.Traces, b)
	}
	return in, nil
}

// round returns the request sequence of round n, which the clients
// take from in turn. Every distinct cell is requested once as an
// original, in an order seeded by the benchmark seed and n, so a run's
// median round averages over many orders. One request in serveShare
// repeats a cell at least repeatGap requests after its original; the
// client sending a repeat first waits for the original to finish, so
// every repeat is a cache hit, never a singleflight join.
func (in serveInputs) round(n int) []serveRequest {
	rng := rand.New(rand.NewSource(in.order + int64(n)*0x9e3779b9))
	var list []serveRequest
	workloadsAll := append([]string(nil), serveModels...)
	for i := range traceSourceSpecs {
		workloadsAll = append(workloadsAll, fmt.Sprintf("trace%d", i))
	}
	for _, w := range workloadsAll {
		for _, k := range core.AllConfigs() {
			list = append(list, serveRequest{Workload: w, Config: k.String()})
		}
	}
	rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	repeats := len(list) / (serveShare - 1)
	for k := 0; k < repeats; k++ {
		pos := repeatGap + rng.Intn(len(list)-repeatGap+1)
		var originals []int
		for i := 0; i <= pos-repeatGap; i++ {
			if !list[i].Repeat {
				originals = append(originals, i)
			}
		}
		r := list[originals[rng.Intn(len(originals))]]
		r.Repeat = true
		list = append(list[:pos], append([]serveRequest{r}, list[pos:]...)...)
	}
	at := make(map[string]int)
	for i, r := range list {
		if r.Repeat {
			list[i].Of = at[r.label()]
		} else {
			at[r.label()] = i
		}
	}
	return list
}

// recordTrace records traceRefs references of a model as an XLTRACE1
// stream, the format users upload to POST /v1/traces.
func recordTrace(name string, seed int64) ([]byte, error) {
	spec, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("no workload %q", name)
	}
	_, gen, err := spec.Build(workloads.BuildOptions{Seed: seed, Scale: benchScale})
	if err != nil {
		return nil, fmt.Errorf("recording %s: %w", name, err)
	}
	refs := make([]trace.Ref, traceRefs)
	for i := range refs {
		refs[i] = gen.Next()
	}
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, refs); err != nil {
		return nil, fmt.Errorf("recording %s: %w", name, err)
	}
	return buf.Bytes(), nil
}
