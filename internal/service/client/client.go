// Package client is the thin HTTP client for the eeatd daemon
// (internal/service): submit a job, wait for it, fetch the
// content-addressed result. It speaks the same wire types the service
// defines and cooperates with the daemon's backpressure — a 429/503
// rejection is retried after the daemon's own Retry-After estimate,
// bounded by the caller's context — and retries transient transport
// failures (connection refused/reset, 5xx) with capped exponential
// backoff and deterministic jitter (see Backoff).
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"xlate/internal/service"
)

// ErrJobFailed wraps the daemon-reported failure of a submitted job.
var ErrJobFailed = errors.New("client: job failed")

// ErrNotFound marks a result the daemon does not hold: a federated
// cache probe that missed, or a payload evicted before the fetch. A
// miss is a normal answer on the read-through path — the cluster
// coordinator classifies on it to fall back to execution — so it gets
// its own sentinel instead of riding on ErrProtocol.
var ErrNotFound = errors.New("client: result not found")

// Client talks to one eeatd daemon.
type Client struct {
	// Base is the daemon address, e.g. "http://localhost:8080".
	Base string
	// HTTP is the transport (default http.DefaultClient). Long-poll
	// waits need a client without an aggressive Timeout.
	HTTP *http.Client
	// Poll is the long-poll window per Wait round trip (default 30s).
	Poll time.Duration
	// Retry governs transient-error retries (the zero value retries 4
	// attempts, 100ms doubling to a 5s cap, deterministic jitter).
	Retry Backoff
}

// New returns a client for the daemon at base.
func New(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) poll() time.Duration {
	if c.Poll > 0 {
		return c.Poll
	}
	return 30 * time.Second
}

// Submit posts a job. Backpressure rejections (429, or 503 while the
// daemon drains) are retried after the daemon's Retry-After estimate
// until ctx expires; transport failures and bare 5xx responses are
// retried on the Backoff schedule until its attempts run out
// (ErrUnavailable); validation rejections (400) fail immediately.
func (c *Client) Submit(ctx context.Context, req service.SubmitRequest) (service.JobStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return service.JobStatus{}, fmt.Errorf("client: encoding request: %w", err)
	}
	transient := 0
	var lastErr error
	for {
		st, code, err := c.postJob(ctx, body)
		switch {
		case err != nil && ctx.Err() != nil:
			return service.JobStatus{}, fmt.Errorf("client: submit: %w", ctx.Err())
		case err != nil:
			lastErr = err
		case code == http.StatusOK || code == http.StatusAccepted:
			return st, nil
		case code == http.StatusTooManyRequests,
			code == http.StatusServiceUnavailable && st.RetryAfter > 0:
			// The daemon told us when to come back; its estimate beats
			// our blind schedule and these retries are bounded only by
			// ctx — saturation is expected to clear.
			delay := time.Duration(st.RetryAfter * float64(time.Second))
			if delay <= 0 {
				delay = time.Second
			}
			if err := sleep(ctx, delay); err != nil {
				return service.JobStatus{}, fmt.Errorf("client: daemon saturated (%s): %w", st.Error, err)
			}
			continue
		case transientCode(code):
			lastErr = fmt.Errorf("client: submit: %w: HTTP %d: %s", ErrUnavailable, code, st.Error)
		default:
			return service.JobStatus{}, fmt.Errorf("client: submit: %w: HTTP %d: %s", ErrProtocol, code, st.Error)
		}
		transient++
		if transient >= c.Retry.attempts() {
			return service.JobStatus{}, fmt.Errorf("client: submit gave up after %d attempts: %w: %v",
				transient, ErrUnavailable, lastErr)
		}
		if err := sleep(ctx, c.Retry.Delay("submit", transient)); err != nil {
			return service.JobStatus{}, fmt.Errorf("client: submit: %w (last: %v)", err, lastErr)
		}
	}
}

func (c *Client) postJob(ctx context.Context, body []byte) (service.JobStatus, int, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return service.JobStatus{}, 0, fmt.Errorf("client: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(hreq)
	if err != nil {
		return service.JobStatus{}, 0, fmt.Errorf("client: submit: %w", err)
	}
	defer resp.Body.Close()
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		if transientCode(resp.StatusCode) {
			// A dying or proxied worker may answer 5xx with a non-JSON
			// body; the status code alone classifies it.
			return service.JobStatus{}, resp.StatusCode, nil
		}
		return service.JobStatus{}, 0, fmt.Errorf("client: submit: decoding HTTP %d response: %w", resp.StatusCode, err)
	}
	return st, resp.StatusCode, nil
}

// Wait long-polls the job until it reaches a terminal state or ctx
// expires. Transport failures and 5xx responses are retried on the
// Backoff schedule; a completed long-poll round resets the budget.
func (c *Client) Wait(ctx context.Context, id string) (service.JobStatus, error) {
	transient := 0
	var lastErr error
	for {
		url := fmt.Sprintf("%s/v1/jobs/%s?wait=%s", c.Base, id, c.poll())
		var st service.JobStatus
		code, err := c.getJSON(ctx, url, &st)
		switch {
		case err != nil && ctx.Err() != nil:
			return service.JobStatus{}, fmt.Errorf("client: waiting for job %s: %w", id, ctx.Err())
		case err != nil:
			lastErr = err
		case code == http.StatusOK:
			switch st.State {
			case service.StateDone, service.StateFailed:
				return st, nil
			}
			transient = 0
			if err := ctx.Err(); err != nil {
				return service.JobStatus{}, fmt.Errorf("client: waiting for job %s: %w", id, err)
			}
			continue
		case transientCode(code):
			lastErr = fmt.Errorf("client: wait: %w: HTTP %d for job %s", ErrUnavailable, code, id)
		default:
			return service.JobStatus{}, fmt.Errorf("client: wait: %w: HTTP %d for job %s", ErrProtocol, code, id)
		}
		transient++
		if transient >= c.Retry.attempts() {
			return service.JobStatus{}, fmt.Errorf("client: wait for job %s gave up after %d attempts: %w: %v",
				id, transient, ErrUnavailable, lastErr)
		}
		if err := sleep(ctx, c.Retry.Delay("wait|"+id, transient)); err != nil {
			return service.JobStatus{}, fmt.Errorf("client: waiting for job %s: %w (last: %v)", id, err, lastErr)
		}
	}
}

// Result fetches the content-addressed payload for a key, retrying
// transport failures and 5xx responses on the Backoff schedule.
func (c *Client) Result(ctx context.Context, key string) ([]byte, error) {
	transient := 0
	var lastErr error
	for {
		body, code, err := c.getResult(ctx, key)
		switch {
		case err != nil && ctx.Err() != nil:
			return nil, fmt.Errorf("client: result %s: %w", key, ctx.Err())
		case err != nil:
			lastErr = err
		case code == http.StatusOK:
			return body, nil
		case code == http.StatusNotFound:
			return nil, fmt.Errorf("client: result %s: %w: HTTP 404", key, ErrNotFound)
		case transientCode(code):
			lastErr = fmt.Errorf("client: result %s: %w: HTTP %d", key, ErrUnavailable, code)
		default:
			return nil, fmt.Errorf("client: result %s: %w: HTTP %d", key, ErrProtocol, code)
		}
		transient++
		if transient >= c.Retry.attempts() {
			return nil, fmt.Errorf("client: result %s gave up after %d attempts: %w: %v",
				key, transient, ErrUnavailable, lastErr)
		}
		if err := sleep(ctx, c.Retry.Delay("result|"+key, transient)); err != nil {
			return nil, fmt.Errorf("client: result %s: %w (last: %v)", key, err, lastErr)
		}
	}
}

func (c *Client) getResult(ctx context.Context, key string) ([]byte, int, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/results/"+key, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("client: %w", err)
	}
	resp, err := c.http().Do(hreq)
	if err != nil {
		return nil, 0, fmt.Errorf("client: result: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse
		return nil, resp.StatusCode, nil
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, fmt.Errorf("client: result: reading body: %w", err)
	}
	return body, resp.StatusCode, nil
}

// RunCell submits a cell job, waits for it, and decodes the payload —
// the remote equivalent of xlate.RunParams, used by eeatsim -remote and
// the cluster coordinator's per-cell dispatch. The returned JobStatus
// is the terminal status the daemon reported: a tracing caller reads
// TraceID/QueueSeconds/ExecSeconds from it to reconstruct the worker-
// side spans without a second RPC (Cached replies report zero timing).
func (c *Client) RunCell(ctx context.Context, req service.SubmitRequest) (service.CellResult, service.JobStatus, error) {
	st, err := c.Submit(ctx, req)
	if err != nil {
		return service.CellResult{}, st, err
	}
	if st.State != service.StateDone && st.State != service.StateFailed {
		if st, err = c.Wait(ctx, st.ID); err != nil {
			return service.CellResult{}, st, err
		}
	}
	if st.State == service.StateFailed {
		return service.CellResult{}, st, fmt.Errorf("%w: %s", ErrJobFailed, st.Error)
	}
	payload, err := c.Result(ctx, st.ID)
	if errors.Is(err, ErrNotFound) {
		// The daemon reported the job done but no longer holds the
		// payload (evicted between completion and fetch). That is a
		// server-side contract break, not a miss the caller can act on.
		return service.CellResult{}, st, fmt.Errorf("client: job %s done but its result is gone: %w", st.ID, ErrProtocol)
	}
	if err != nil {
		return service.CellResult{}, st, err
	}
	var out service.CellResult
	if err := json.Unmarshal(payload, &out); err != nil {
		return service.CellResult{}, st, fmt.Errorf("client: decoding result payload: %w", err)
	}
	return out, st, nil
}

func (c *Client) getJSON(ctx context.Context, url string, v any) (int, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, fmt.Errorf("client: %w", err)
	}
	resp, err := c.http().Do(hreq)
	if err != nil {
		return 0, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			return resp.StatusCode, fmt.Errorf("client: decoding %s: %w", url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse
	}
	return resp.StatusCode, nil
}
