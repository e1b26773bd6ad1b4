package harness

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"xlate/internal/core"
	"xlate/internal/exper"
	"xlate/internal/telemetry"
)

// groupJobs returns four cells, one per configuration, that read one
// stream long enough to run through the shared ring several times.
func groupJobs() []exper.Job {
	var jobs []exper.Job
	for _, k := range []core.ConfigKind{core.Cfg4KB, core.CfgTHP, core.CfgRMM, core.CfgTLBLite} {
		j := tinyJob("grouped", k, 5)
		j.Instrs = 600_000
		jobs = append(jobs, j)
	}
	return jobs
}

// tripWriter is a tracer sink that calls trip once more than after
// bytes were written to it: a hook that fires mid-stream, inside
// Simulator.Access, when the tracer flushes.
type tripWriter struct {
	n, after int
	trip     func()
}

func (w *tripWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	if w.n > w.after && w.trip != nil {
		trip := w.trip
		w.trip = nil
		trip()
	}
	return len(p), nil
}

// tripAfter attaches a sampled-every-event tracer to j that calls trip
// mid-stream.
func tripAfter(j exper.Job, trip func()) exper.Job {
	j.Params.Trace = telemetry.NewTracer(&tripWriter{after: 4 << 20, trip: trip}, telemetry.TraceJSONL, 1)
	return j
}

// waitGoroutines fails t unless the goroutine count falls back to
// before.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive Suite.Run (%d before)", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamGroupSurvivesAFailingMember runs a four-member stream group
// in which one member, the THP cell, leaves the shared stream early or
// never reads it. Every other member's Result equals its solo run, and
// no goroutine outlives the suite.
func TestStreamGroupSurvivesAFailingMember(t *testing.T) {
	jobs := groupJobs()
	solo := make(map[core.ConfigKind]core.Result)
	for _, j := range jobs {
		res, err := exper.ExecuteJobContext(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		solo[j.Params.Kind] = res
	}
	const victim = core.CfgTHP

	cases := []struct {
		name string
		// run executes the victim; othersDone is closed once every
		// other member has finished.
		run     func(ctx context.Context, j exper.Job, othersDone <-chan struct{}) (core.Result, error)
		wantErr func(err error) bool
	}{
		{
			name: "cancelled mid-stream",
			run: func(ctx context.Context, j exper.Job, _ <-chan struct{}) (core.Result, error) {
				ctx, cancel := context.WithCancel(ctx)
				defer cancel()
				res, err := exper.ExecuteJobContext(ctx, tripAfter(j, cancel))
				if err == nil || res.MemRefs == 0 || res.Instructions >= j.Instrs {
					return res, fmt.Errorf("victim was not cancelled mid-stream: %d refs, err %v", res.MemRefs, err)
				}
				return res, err
			},
			wantErr: func(err error) bool { return errors.Is(err, context.Canceled) },
		},
		{
			name: "panics mid-stream",
			run: func(ctx context.Context, j exper.Job, _ <-chan struct{}) (core.Result, error) {
				return exper.ExecuteJobContext(ctx, tripAfter(j, func() { panic("victim panics mid-stream") }))
			},
			wantErr: func(err error) bool {
				var pe *PanicError
				return errors.As(err, &pe) && fmt.Sprint(pe.Value) == "victim panics mid-stream"
			},
		},
		{
			name: "NewSimulator fails",
			run: func(ctx context.Context, j exper.Job, _ <-chan struct{}) (core.Result, error) {
				j.Params.L2Entries = 0
				return exper.ExecuteJobContext(ctx, j)
			},
			wantErr: func(err error) bool { return errors.Is(err, core.ErrInvalidParams) },
		},
		{
			name: "joins after block 0 left the ring",
			run: func(ctx context.Context, j exper.Job, othersDone <-chan struct{}) (core.Result, error) {
				// A cell of another stream takes the seat first, so the
				// group does not wait for this member.
				other := j
				other.Seed++
				if _, err := exper.ExecuteJobContext(ctx, other); err != nil {
					return core.Result{}, err
				}
				<-othersDone
				res, err := exper.ExecuteJobContext(ctx, j)
				if err == nil && !reflect.DeepEqual(res, solo[j.Params.Kind]) {
					return res, errors.New("late member's Result differs from its solo run")
				}
				return res, err
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			var (
				mu     sync.Mutex
				got    = make(map[core.ConfigKind]core.Result)
				others sync.WaitGroup
			)
			others.Add(len(jobs) - 1)
			othersDone := make(chan struct{})
			go func() {
				others.Wait()
				close(othersDone)
			}()
			exec := func(ctx context.Context, j exper.Job) (core.Result, error) {
				if j.Params.Kind == victim {
					return tc.run(ctx, j, othersDone)
				}
				defer others.Done()
				res, err := exper.ExecuteJobContext(ctx, j)
				if err != nil {
					return res, err
				}
				mu.Lock()
				got[j.Params.Kind] = res
				mu.Unlock()
				return res, nil
			}
			s := New(Config{Workers: 2, Options: exper.Options{Instrs: 1, Scale: 1, Seed: 1}, Execute: exec})
			if _, err := s.Run(context.Background(), []exper.Experiment{cellExp("group", jobs)}); err != nil {
				t.Fatal(err)
			}
			for _, j := range jobs {
				k := j.Params.Kind
				if k == victim {
					continue
				}
				if !reflect.DeepEqual(got[k], solo[k]) {
					t.Errorf("%v: Result differs from its solo run", k)
				}
			}
			var failed []*RunError
			for _, re := range s.failed {
				failed = append(failed, re)
			}
			switch {
			case tc.wantErr == nil && len(failed) != 0:
				t.Errorf("victim failed: %v", failed[0].Cause)
			case tc.wantErr != nil && (len(failed) != 1 || !tc.wantErr(failed[0].Cause)):
				t.Errorf("failed cells %v, want the victim with its own error", failed)
			}
			waitGoroutines(t, before)
		})
	}
}

// TestStreamGroupsSplitAtTheMemberCap checks that a stream's cells form
// groups of at most memberCap, in the order of each group's first cell.
func TestStreamGroupsSplitAtTheMemberCap(t *testing.T) {
	var todo []plannedJob
	for i := 0; i < memberCap+3; i++ {
		for _, name := range []string{"alpha", "beta"} {
			j := tinyJob(name, core.Cfg4KB, 7)
			j.Params.L2Entries = 64 * (i + 1) // one cell per index, one stream per name
			todo = append(todo, plannedJob{key: jobKey(j), job: j})
		}
	}
	var sizes []string
	for _, g := range streamGroups(todo) {
		sizes = append(sizes, fmt.Sprintf("%s×%d", g[0].job.Spec.Name, len(g)))
	}
	want := fmt.Sprintf("alpha×%d beta×%d alpha×3 beta×3", memberCap, memberCap)
	if got := strings.Join(sizes, " "); got != want {
		t.Errorf("groups %s, want %s", got, want)
	}
}

// TestStreamGroupHoldsItsSlots runs two three-member stream groups on
// one worker: a group's members run together, and the second group
// starts only after the first has released its slot, so at most three
// cells are ever in flight. The plan log line counts the streams.
func TestStreamGroupHoldsItsSlots(t *testing.T) {
	var jobs []exper.Job
	for _, name := range []string{"alpha", "beta"} {
		for _, k := range []core.ConfigKind{core.Cfg4KB, core.CfgTHP, core.CfgRMM} {
			// Longer than the ring: the first member cannot finish
			// before its group's other members have joined.
			j := tinyJob(name, k, 7)
			j.Instrs = 600_000
			jobs = append(jobs, j)
		}
	}
	var (
		mu                sync.Mutex
		inFlight, maxSeen int
		logs              []string
	)
	exec := func(ctx context.Context, j exper.Job) (core.Result, error) {
		mu.Lock()
		inFlight++
		maxSeen = max(maxSeen, inFlight)
		mu.Unlock()
		defer func() {
			mu.Lock()
			inFlight--
			mu.Unlock()
		}()
		return exper.ExecuteJobContext(ctx, j)
	}
	logf := func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	s := New(Config{Workers: 1, Options: exper.Options{Instrs: 1, Scale: 1, Seed: 1}, Execute: exec, Logf: logf})
	if _, err := s.Run(context.Background(), []exper.Experiment{cellExp("groups", jobs)}); err != nil {
		t.Fatal(err)
	}
	if maxSeen != 3 {
		t.Errorf("%d cells in flight at most, want 3 (one group's members)", maxSeen)
	}
	if want := "planned 6 cells (6 to execute in 2 streams)"; !strings.HasPrefix(logs[0], want) {
		t.Errorf("plan log line %q, want prefix %q", logs[0], want)
	}
}
