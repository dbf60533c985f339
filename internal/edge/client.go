package edge

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"itsbed/internal/openc2x"
)

// Client is the wall-clock HTTP client the edge node uses to talk to a
// testbed daemon (see examples/httpapi). It layers the retry
// behaviour a service-mode deployment needs on top of net/http:
//
//   - 429/503 responses are retried, honouring the server's
//     Retry-After hint when present and capped exponential backoff
//     otherwise;
//   - a total retry deadline bounds how long one logical request may
//     keep trying, so a dead daemon costs a bounded stall rather than
//     an unbounded one;
//   - a circuit breaker trips after consecutive failures, failing
//     calls fast during the cooldown, then admits a half-open probe —
//     an overloaded daemon sheds our retries too, and hammering it
//     harder only deepens the overload.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://10.0.0.2:1188".
	BaseURL string
	// StationID, when nonzero, routes calls through the multiplexed
	// /stations/{id}/... routes; zero uses the legacy single-station
	// aliases.
	StationID uint32
	// HTTP is the underlying client; nil uses a private client with a
	// per-attempt timeout.
	HTTP *http.Client

	// MaxAttempts bounds tries per logical request (zero: 4).
	MaxAttempts int
	// RetryDeadline bounds total time across attempts, backoff
	// included (zero: 3s).
	RetryDeadline time.Duration
	// BaseBackoff seeds the exponential backoff used when the server
	// sends no Retry-After (zero: 25ms). Backoff doubles per attempt,
	// capped at MaxBackoff (zero: 1s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	// BreakerThreshold trips the circuit after that many consecutive
	// failed logical requests (zero: 5; negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long the circuit stays open before a
	// half-open probe is admitted (zero: 2s).
	BreakerCooldown time.Duration

	// Sleep and Now are test seams; nil selects the real clock.
	Sleep func(time.Duration)
	Now   func() time.Time

	mu       sync.Mutex
	failures int       // consecutive logical-request failures
	openedAt time.Time // breaker trip time; zero when closed
	probing  bool      // a half-open probe is in flight
}

// ErrCircuitOpen is returned (wrapped) when the breaker fails a call
// fast without touching the network.
var ErrCircuitOpen = fmt.Errorf("edge: circuit open")

// StatusError reports a terminal non-2xx response (after retries were
// exhausted or for statuses that are not retryable).
type StatusError struct {
	Status int
	Body   string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("edge: http %d: %s", e.Status, e.Body)
}

func (c *Client) http_() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 10 * time.Second}
}

func (c *Client) now() time.Time {
	if c.Now != nil {
		return c.Now()
	}
	return time.Now()
}

func (c *Client) sleep(d time.Duration) {
	if c.Sleep != nil {
		c.Sleep(d)
		return
	}
	time.Sleep(d)
}

func (c *Client) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 4
}

func (c *Client) retryDeadline() time.Duration {
	if c.RetryDeadline > 0 {
		return c.RetryDeadline
	}
	return 3 * time.Second
}

func (c *Client) baseBackoff() time.Duration {
	if c.BaseBackoff > 0 {
		return c.BaseBackoff
	}
	return 25 * time.Millisecond
}

func (c *Client) maxBackoff() time.Duration {
	if c.MaxBackoff > 0 {
		return c.MaxBackoff
	}
	return time.Second
}

func (c *Client) breakerThreshold() int {
	if c.BreakerThreshold > 0 {
		return c.BreakerThreshold
	}
	if c.BreakerThreshold < 0 {
		return 0 // disabled
	}
	return 5
}

func (c *Client) breakerCooldown() time.Duration {
	if c.BreakerCooldown > 0 {
		return c.BreakerCooldown
	}
	return 2 * time.Second
}

// path prefixes p with the station route when StationID is set.
func (c *Client) path(p string) string {
	if c.StationID != 0 {
		return fmt.Sprintf("%s/stations/%d%s", c.BaseURL, c.StationID, p)
	}
	return c.BaseURL + p
}

// admit consults the breaker. It returns an error when the circuit is
// open, and marks a half-open probe in flight when the cooldown has
// elapsed.
func (c *Client) admit() error {
	th := c.breakerThreshold()
	if th == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.openedAt.IsZero() {
		return nil
	}
	if c.now().Sub(c.openedAt) < c.breakerCooldown() {
		return fmt.Errorf("%w (cooldown %s remaining)", ErrCircuitOpen,
			(c.breakerCooldown() - c.now().Sub(c.openedAt)).Round(time.Millisecond))
	}
	// Cooldown elapsed: admit exactly one half-open probe at a time.
	if c.probing {
		return fmt.Errorf("%w (probe in flight)", ErrCircuitOpen)
	}
	c.probing = true
	return nil
}

// settle records the outcome of one logical request against the
// breaker state.
func (c *Client) settle(err error) {
	th := c.breakerThreshold()
	if th == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.probing = false
	if err == nil {
		c.failures = 0
		c.openedAt = time.Time{}
		return
	}
	c.failures++
	if c.failures >= th {
		c.openedAt = c.now()
	}
}

// retryAfter extracts the server's Retry-After hint (seconds form);
// ok is false when absent or unparseable.
func retryAfter(resp *http.Response) (time.Duration, bool) {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// retryable reports whether a status is worth another attempt.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// do runs one logical request with retries, Retry-After, the total
// deadline, and the breaker. On success the response body is decoded
// into out (when non-nil).
func (c *Client) do(ctx context.Context, method, url string, body []byte, out any) error {
	if err := c.admit(); err != nil {
		return err
	}
	err := c.doRetries(ctx, method, url, body, out)
	c.settle(err)
	return err
}

func (c *Client) doRetries(ctx context.Context, method, url string, body []byte, out any) error {
	started := c.now()
	deadline := c.retryDeadline()
	backoff := c.baseBackoff()
	var lastErr error
	for attempt := 0; attempt < c.maxAttempts(); attempt++ {
		if attempt > 0 {
			wait := backoff
			if ra, ok := lastRetryAfter(lastErr); ok {
				wait = ra
			}
			if c.now().Sub(started)+wait > deadline {
				return fmt.Errorf("edge: retry deadline %s exceeded after %d attempts: %w",
					deadline, attempt, lastErr)
			}
			c.sleep(wait)
			backoff *= 2
			if backoff > c.maxBackoff() {
				backoff = c.maxBackoff()
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.http_().Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		data, readErr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			if readErr != nil {
				return readErr
			}
			if out != nil {
				if err := json.Unmarshal(data, out); err != nil {
					return fmt.Errorf("edge: decode response: %w", err)
				}
			}
			return nil
		}
		se := &retryAfterError{
			StatusError: StatusError{Status: resp.StatusCode, Body: string(bytes.TrimSpace(data))},
		}
		if ra, ok := retryAfter(resp); ok {
			se.retryAfter = ra
			se.hasRetryAfter = true
		}
		lastErr = se
		if !retryable(resp.StatusCode) {
			return &se.StatusError
		}
	}
	return fmt.Errorf("edge: %d attempts exhausted: %w", c.maxAttempts(), lastErr)
}

// retryAfterError carries the Retry-After hint alongside the status.
type retryAfterError struct {
	StatusError
	retryAfter    time.Duration
	hasRetryAfter bool
}

func lastRetryAfter(err error) (time.Duration, bool) {
	if re, ok := err.(*retryAfterError); ok && re.hasRetryAfter {
		return re.retryAfter, true
	}
	return 0, false
}

// TriggerDENM POSTs a trigger_denm request.
func (c *Client) TriggerDENM(ctx context.Context, req openc2x.TriggerRequest) (openc2x.TriggerResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return openc2x.TriggerResponse{}, err
	}
	var out openc2x.TriggerResponse
	err = c.do(ctx, http.MethodPost, c.path("/trigger_denm"), body, &out)
	return out, err
}

// RequestDENM POSTs a request_denm poll, returning the drained batch.
func (c *Client) RequestDENM(ctx context.Context) ([]openc2x.DENMSummary, error) {
	var out []openc2x.DENMSummary
	err := c.do(ctx, http.MethodPost, c.path("/request_denm"), nil, &out)
	return out, err
}
