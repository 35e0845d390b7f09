package backend

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"github.com/snails-bench/snails/internal/trace"
)

// HTTPOptions configures an OpenAI-style chat-completions backend.
type HTTPOptions struct {
	// Name identifies the backend in cells and responses. Defaults to
	// Model, else "http".
	Name string
	// BaseURL is the server root; the client POSTs to
	// BaseURL + "/v1/chat/completions".
	BaseURL string
	// Model is the model field of the chat request.
	Model string
	// MaxRetries bounds re-sends after a retryable failure (429, 5xx,
	// transport error, truncated body). 0 means the default (3).
	MaxRetries int
	// Backoff is the base delay before the first retry; it doubles per
	// attempt. 0 means the default (100ms).
	Backoff time.Duration
	// Timeout caps each attempt. The caller's context deadline always
	// wins when sooner. 0 means the default (30s).
	Timeout time.Duration
	// MaxResponseBytes caps how much of a success response body is read
	// (default 1 MiB). A larger body fails the attempt with
	// ResponseTooLargeError — terminal, not retried: a server that
	// over-produces once will over-produce again, and an unbounded ReadAll
	// would let one misbehaving backend exhaust the process.
	MaxResponseBytes int64
	// Client overrides the HTTP client (tests inject failure transports).
	Client *http.Client
}

// HTTP is a Backend speaking the OpenAI chat-completions wire protocol.
// Generations are extracted from the response with ExtractSQL.
type HTTP struct {
	opts HTTPOptions
}

// NewHTTP returns a chat-completions backend. BaseURL must be non-empty.
func NewHTTP(opts HTTPOptions) (*HTTP, error) {
	if opts.BaseURL == "" {
		return nil, errors.New("backend: http backend needs a base URL")
	}
	opts.BaseURL = strings.TrimRight(opts.BaseURL, "/")
	if opts.Name == "" {
		opts.Name = opts.Model
	}
	if opts.Name == "" {
		opts.Name = "http"
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 3
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 100 * time.Millisecond
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	if opts.MaxResponseBytes <= 0 {
		opts.MaxResponseBytes = 1 << 20
	}
	if opts.Client == nil {
		opts.Client = &http.Client{}
	}
	return &HTTP{opts: opts}, nil
}

// Name identifies the backend.
func (h *HTTP) Name() string { return h.opts.Name }

// Capabilities: a wire model is not deterministic (each request is an
// independent network call) and exposes no linking stage.
func (h *HTTP) Capabilities() Capabilities { return Capabilities{} }

// chatMessage / chatRequest / chatResponse are the OpenAI wire types (the
// subset this client uses).
type chatMessage struct {
	Role    string `json:"role"`
	Content string `json:"content"`
}

type chatRequest struct {
	Model       string        `json:"model"`
	Messages    []chatMessage `json:"messages"`
	Temperature float64       `json:"temperature"`
}

type chatResponse struct {
	Choices []struct {
		Message chatMessage `json:"message"`
	} `json:"choices"`
}

// systemPrompt frames the task for wire models; the schema and question ride
// in the user message.
const systemPrompt = "You translate natural-language questions into a single SQL query. " +
	"Answer with the query in a ```sql fence and nothing else."

// Infer POSTs the chat request, retrying retryable failures with
// exponential backoff. Each attempt runs under the sooner of the per-attempt
// timeout and the caller's deadline; the backoff sleep itself respects the
// caller's context, so a short client deadline is honored mid-retry. Every
// attempt records a backend_attempt span on the request's trace, and the
// retry/backoff/outcome tallies feed the snails_backend_* families.
func (h *HTTP) Infer(ctx context.Context, req Request) (Result, error) {
	body, err := json.Marshal(chatRequest{
		Model: h.opts.Model,
		Messages: []chatMessage{
			{Role: "system", Content: systemPrompt},
			{Role: "user", Content: req.SchemaKnowledge + "\n\n" + req.Question},
		},
	})
	if err != nil {
		countOutcome(err)
		return Result{}, fmt.Errorf("backend %s: marshal: %w", h.opts.Name, err)
	}

	tr := trace.FromContext(ctx)
	var lastErr error
	for attempt := 0; attempt <= h.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			retriesTotal.Add(1)
			d := h.opts.Backoff << (attempt - 1)
			if err := sleepCtx(ctx, d); err != nil {
				countOutcome(err)
				return Result{}, fmt.Errorf("backend %s: %w (last attempt: %v)", h.opts.Name, err, lastErr)
			}
			backoffHist.Observe(d)
		}
		start := tr.Now()
		content, err := h.attempt(ctx, body)
		tr.SpanTag(trace.StageBackendAttempt, start, h.opts.Name+"#"+strconv.Itoa(attempt))
		if err == nil {
			countOutcome(nil)
			return Result{SQL: ExtractSQL(content)}, nil
		}
		lastErr = err
		if !retryable(err) || ctx.Err() != nil {
			break
		}
	}
	countOutcome(lastErr)
	return Result{}, fmt.Errorf("backend %s: %w", h.opts.Name, lastErr)
}

// retryStatusError marks HTTP statuses worth re-sending (the server may
// recover): 429 and the 5xx family.
type retryStatusError struct{ status int }

func (e *retryStatusError) Error() string { return fmt.Sprintf("server returned %d", e.status) }

// retryable reports whether an attempt error is transient: retry statuses,
// truncated bodies, and transport-level failures (including a per-attempt
// timeout — the caller's own deadline breaks the retry loop separately).
// Malformed-but-complete responses are terminal: the server is broken, not
// busy.
func retryable(err error) bool {
	var rs *retryStatusError
	if errors.As(err, &rs) {
		return true
	}
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return true
	}
	var ue *url.Error
	return errors.As(err, &ue)
}

// attempt is one request/response cycle, returning the first choice's
// content.
func (h *HTTP) attempt(ctx context.Context, body []byte) (string, error) {
	actx, cancel := context.WithTimeout(ctx, h.opts.Timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(actx, http.MethodPost,
		h.opts.BaseURL+"/v1/chat/completions", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := h.opts.Client.Do(hreq)
	if err != nil {
		return "", fmt.Errorf("post: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return "", &retryStatusError{status: resp.StatusCode}
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return "", fmt.Errorf("server returned %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	limit := h.opts.MaxResponseBytes
	raw, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		// A disconnect mid-body surfaces here as unexpected EOF.
		return "", fmt.Errorf("read body: %w", err)
	}
	// The size check must precede decoding: a capped read truncates the JSON
	// mid-document, and looksTruncated would misread that as a retryable
	// stream death instead of a terminal oversized response.
	if int64(len(raw)) > limit {
		return "", &ResponseTooLargeError{Limit: limit}
	}
	var cr chatResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		if trimmed := bytes.TrimSpace(raw); len(trimmed) > 0 && !json.Valid(trimmed) && looksTruncated(trimmed) {
			return "", fmt.Errorf("decode response: %w", io.ErrUnexpectedEOF)
		}
		return "", fmt.Errorf("decode response: %w", err)
	}
	if len(cr.Choices) == 0 {
		return "", errors.New("response has no choices")
	}
	return cr.Choices[0].Message.Content, nil
}

// ResponseTooLargeError reports a success response whose body exceeded
// HTTPOptions.MaxResponseBytes. It is terminal — retryable() does not match
// it, so the attempt loop fails fast instead of re-downloading the flood.
type ResponseTooLargeError struct{ Limit int64 }

func (e *ResponseTooLargeError) Error() string {
	return fmt.Sprintf("response body exceeds %d bytes", e.Limit)
}

// looksTruncated distinguishes a cut-off JSON document (retryable — the
// stream died) from a body that was never JSON (terminal).
func looksTruncated(b []byte) bool {
	return b[0] == '{' || b[0] == '['
}

// sleepCtx sleeps for d unless the context ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
