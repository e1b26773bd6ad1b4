package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"xlate/internal/core"
	"xlate/internal/exper"
	"xlate/internal/harness"
	"xlate/internal/telemetry"
	"xlate/internal/tracec"
	"xlate/internal/workloads"
)

// SubmitRequest is the POST /v1/jobs body. Exactly one of Workload or
// Experiment selects the job kind:
//
//   - Workload + Config: one simulation cell, the same cell eeatsim
//     runs — the daemon's unit of caching and deduplication.
//   - Experiment: one paper artifact (fig2, table5, ...) run through
//     the harness suite; its cells checkpoint to the daemon spool so a
//     drained job resumes instead of restarting.
//
// Instrs, Scale and Seed default like exper.Options (20 M, 1.0, 42).
type SubmitRequest struct {
	Workload string `json:"workload,omitempty"`
	Config   string `json:"config,omitempty"`
	// Interval, for cell jobs, collects the per-interval series with
	// this instruction cadence (eeatsim -interval).
	Interval uint64 `json:"interval,omitempty"`

	Experiment string `json:"experiment,omitempty"`

	// Cell is a fully parameterized cell in wire form — the cluster
	// coordinator's dispatch payload. Unlike Workload+Config it can
	// express sweep cells with non-default parameters and custom energy
	// databases. Mutually exclusive with Workload and Experiment; when
	// set, Instrs/Scale/Seed are carried inside the cell itself.
	Cell *WireJob `json:"cell,omitempty"`

	Instrs uint64  `json:"instrs,omitempty"`
	Scale  float64 `json:"scale,omitempty"`
	Seed   int64   `json:"seed,omitempty"`
}

// job kinds.
const (
	kindCell       = "cell"
	kindExperiment = "experiment"
)

// job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// resolved is a validated, executable submission: its content-
// addressed key plus whichever of the two payloads the kind selects.
type resolved struct {
	kind string
	key  string

	cell exper.Job        // kindCell
	expr exper.Experiment // kindExperiment
	opt  exper.Options    // kindExperiment: instrs/scale/seed

	// trace is the propagated trace context a cell submission carried
	// (zero when the submitter is not tracing). It is deliberately NOT
	// part of the key: traced and untraced submissions of the same cell
	// share one cache entry.
	trace telemetry.TraceContext
}

// resolve validates a submission and computes its identity. Cell jobs
// are keyed by the canonical harness cell key — the same identity the
// experiment harness dedups and resumes by — so equal keys guarantee
// byte-identical results. Experiment jobs hash the artifact id and the
// options that parameterize every cell under it.
func resolve(req SubmitRequest, edb cellDefaults) (resolved, error) {
	if req.Cell != nil {
		if req.Workload != "" || req.Experiment != "" || req.Config != "" ||
			req.Interval != 0 || req.Instrs != 0 || req.Scale != 0 || req.Seed != 0 {
			return resolved{}, fmt.Errorf("%w: a cell payload carries its own parameters; no other fields may be set", ErrBadRequest)
		}
		j, err := req.Cell.Job()
		if err != nil {
			return resolved{}, err
		}
		if edb.maxInstrs > 0 && j.Instrs > edb.maxInstrs {
			return resolved{}, fmt.Errorf("%w: instrs %d exceeds the admission cap %d", ErrBadRequest, j.Instrs, edb.maxInstrs)
		}
		return resolved{
			kind:  kindCell,
			key:   harness.JobKey(j),
			cell:  j,
			trace: telemetry.TraceContext{TraceID: req.Cell.TraceID, ParentSpan: req.Cell.ParentSpan},
		}, nil
	}
	if (req.Workload == "") == (req.Experiment == "") {
		return resolved{}, fmt.Errorf("%w: exactly one of workload, experiment, or cell must be set", ErrBadRequest)
	}
	opt := exper.Options{Instrs: req.Instrs, Scale: req.Scale, Seed: req.Seed}.WithDefaults()
	if edb.maxInstrs > 0 && opt.Instrs > edb.maxInstrs {
		return resolved{}, fmt.Errorf("%w: instrs %d exceeds the admission cap %d", ErrBadRequest, opt.Instrs, edb.maxInstrs)
	}

	if req.Experiment != "" {
		if req.Config != "" || req.Interval != 0 {
			return resolved{}, fmt.Errorf("%w: config/interval apply to cell jobs only", ErrBadRequest)
		}
		if err := opt.Check(); err != nil {
			return resolved{}, fmt.Errorf("%w: %w", ErrBadRequest, err)
		}
		var e exper.Experiment
		if ref, isTrace := strings.CutPrefix(req.Experiment, "trace:"); isTrace {
			// An ingested trace run as a full experiment: characterize the
			// stream across the headline configurations (DESIGN.md §15).
			if err := checkTraceRef(ref, edb); err != nil {
				return resolved{}, err
			}
			e = exper.TraceExperiment(ref)
		} else {
			var ok bool
			e, ok = exper.ByID(req.Experiment)
			if !ok {
				return resolved{}, fmt.Errorf("%w: unknown experiment %q (known: %v)", ErrBadRequest, req.Experiment, exper.IDs())
			}
		}
		sum := sha256.Sum256([]byte(fmt.Sprintf("experiment|%s|instrs=%d|scale=%g|seed=%d",
			e.ID, opt.Instrs, opt.Scale, opt.Seed)))
		return resolved{
			kind: kindExperiment,
			key:  hex.EncodeToString(sum[:]),
			expr: e,
			opt:  opt,
		}, nil
	}

	var spec workloads.Spec
	if ref, isTrace := strings.CutPrefix(req.Workload, "trace:"); isTrace {
		if err := checkTraceRef(ref, edb); err != nil {
			return resolved{}, err
		}
		spec = workloads.TraceSpec(ref)
	} else {
		var ok bool
		spec, ok = workloads.ByName(req.Workload)
		if !ok {
			return resolved{}, fmt.Errorf("%w: unknown workload %q", ErrBadRequest, req.Workload)
		}
	}
	if req.Config == "" {
		return resolved{}, fmt.Errorf("%w: cell jobs need a config", ErrBadRequest)
	}
	kind, ok := core.ParseConfig(req.Config)
	if !ok {
		return resolved{}, fmt.Errorf("%w: unknown config %q", ErrBadRequest, req.Config)
	}
	p := core.DefaultParams(kind)
	p.SeriesIntervalInstrs = req.Interval
	j := exper.NewJob(spec, p, opt)
	if err := j.Check(); err != nil {
		return resolved{}, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	return resolved{kind: kindCell, key: harness.JobKey(j), cell: j}, nil
}

// cellDefaults carries the server-side admission parameters resolve
// enforces on every submission.
type cellDefaults struct {
	maxInstrs uint64
	// traces is true when the daemon holds a segment store; without one,
	// "trace:<key>" submissions are rejected at admission rather than
	// failing on a worker.
	traces bool
}

// checkTraceRef validates a "trace:<key>" reference at admission time:
// the key must be a well-formed content hash and the daemon must hold a
// segment store to replay it from.
func checkTraceRef(ref string, edb cellDefaults) error {
	if !tracec.IsKey(ref) {
		return fmt.Errorf("%w: malformed trace key %q (want 64 hex digits)", ErrBadRequest, ref)
	}
	if !edb.traces {
		return fmt.Errorf("%w: this daemon has no trace store (start with -trace-store)", ErrBadRequest)
	}
	return nil
}

// job is one admitted submission's lifecycle record.
type job struct {
	id   string // == resolved.key
	kind string
	req  SubmitRequest
	res  resolved

	created time.Time
	// done closes when the job reaches a terminal state; long-poll
	// waiters and the drain path select on it.
	done chan struct{}
	log  *logBuffer

	// Written before done closes, read after (or under the server mu).
	state    string
	started  time.Time
	finished time.Time
	errMsg   string
	payload  []byte
}

// JobStatus is the wire form of a job's lifecycle state, returned by
// POST /v1/jobs and GET /v1/jobs/{id}.
//
//eeat:wire
type JobStatus struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State string `json:"state"`
	// Cached is true when the response was satisfied from the result
	// cache without touching the queue.
	Cached bool `json:"cached,omitempty"`
	// Deduped is true when the submission attached to an already
	// queued or running identical job (singleflight).
	Deduped   bool    `json:"deduped,omitempty"`
	Error     string  `json:"error,omitempty"`
	ResultURL string  `json:"result_url,omitempty"`
	LogURL    string  `json:"log_url,omitempty"`
	Seconds   float64 `json:"seconds,omitempty"`
	// TraceID echoes the submission's propagated trace context so a
	// tracing coordinator can stitch worker-side timing into its own
	// trace; QueueSeconds/ExecSeconds report, on terminal states, how
	// long the job waited in the queue and ran on a worker slot. They
	// describe this execution, not the cached result — a Cached reply
	// reports zeros.
	TraceID      string  `json:"trace_id,omitempty"`
	QueueSeconds float64 `json:"queue_seconds,omitempty"`
	ExecSeconds  float64 `json:"exec_seconds,omitempty"`
	// RetryAfter, on a 429/503 rejection, estimates seconds until the
	// queue likely has room (also sent as the Retry-After header).
	RetryAfter float64 `json:"retry_after_seconds,omitempty"`
}

// CellResult is the cached payload of a cell job.
type CellResult struct {
	Key      string      `json:"key"`
	Kind     string      `json:"kind"`
	Workload string      `json:"workload"`
	Config   string      `json:"config"`
	Result   core.Result `json:"result"`
}

// ExperimentResult is the cached payload of an experiment job.
type ExperimentResult struct {
	Key        string            `json:"key"`
	Kind       string            `json:"kind"`
	Experiment string            `json:"experiment"`
	Title      string            `json:"title"`
	Tables     []ExperimentTable `json:"tables"`
}

// ExperimentTable is one rendered table of an experiment payload.
type ExperimentTable struct {
	Title    string `json:"title"`
	Markdown string `json:"markdown"`
	CSV      string `json:"csv"`
}
