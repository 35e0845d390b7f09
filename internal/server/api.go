package server

import (
	"fmt"
	"strings"

	"github.com/snails-bench/snails/internal/naturalness"
	"github.com/snails-bench/snails/internal/schema"
	"github.com/snails-bench/snails/internal/trace"
)

// apiRequest is the union of every POST endpoint's request body. Handlers
// validate the subset of fields they use; unknown fields are ignored so
// clients can evolve ahead of the server.
type apiRequest struct {
	// Shared addressing fields (cache keys include DB and Variant).
	DB      string `json:"db,omitempty"`
	Variant string `json:"variant,omitempty"`

	// /v1/infer
	Model      string `json:"model,omitempty"`
	QuestionID int    `json:"question_id,omitempty"`
	Question   string `json:"question,omitempty"`

	// /v1/classify
	Identifier  string   `json:"identifier,omitempty"`
	Identifiers []string `json:"identifiers,omitempty"`

	// /v1/modify
	Op       string            `json:"op,omitempty"`     // "abbreviate" | "expand"
	Words    []string          `json:"words,omitempty"`  // abbreviate input
	Target   string            `json:"target,omitempty"` // naturalness level
	Metadata map[string]string `json:"metadata,omitempty"`

	// /v1/link
	GoldSQL string `json:"gold_sql,omitempty"`
	PredSQL string `json:"pred_sql,omitempty"`
}

// apiError is the uniform error body: {"error":{"code":...,"message":...}}.
type apiError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *apiError) Error() string { return e.Message }

func errorf(status int, code, format string, args ...any) *apiError {
	return &apiError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// InferResponse is one NL-to-SQL round served by /v1/infer.
type InferResponse struct {
	DB         string `json:"db"`
	Model      string `json:"model"`
	Variant    string `json:"variant"`
	QuestionID int    `json:"question_id"`
	Question   string `json:"question"`

	// The response body deliberately carries no caching metadata: identical
	// requests must produce byte-identical bodies whether served solo,
	// concurrently, coalesced, or from cache (the determinism guarantee).
	// Cache behaviour is observable via /metricsz and the X-Snails-Cache
	// header instead.
	SQL         string  `json:"sql"`
	NativeSQL   string  `json:"native_sql"`
	Valid       bool    `json:"valid"`
	ExecCorrect bool    `json:"exec_correct"`
	Recall      float64 `json:"recall"`
	Precision   float64 `json:"precision"`
	F1          float64 `json:"f1"`
}

// ClassifiedIdentifier is one /v1/classify verdict.
type ClassifiedIdentifier struct {
	Identifier string `json:"identifier"`
	Level      string `json:"level"` // "Regular" | "Low" | "Least"
	Label      string `json:"label"` // "N1" | "N2" | "N3"
}

// ClassifyResponse reports naturalness for ad-hoc identifiers or a whole
// benchmark schema.
type ClassifyResponse struct {
	DB      string                 `json:"db,omitempty"`
	Results []ClassifiedIdentifier `json:"results"`
	// Schema-level aggregates (populated when classifying a db or more than
	// one identifier).
	Regular  float64 `json:"regular_fraction"`
	Low      float64 `json:"low_fraction"`
	Least    float64 `json:"least_fraction"`
	Combined float64 `json:"combined_naturalness"`
}

// ModifyResponse is the /v1/modify result for either direction.
type ModifyResponse struct {
	Op         string   `json:"op"`
	Identifier string   `json:"identifier,omitempty"` // abbreviate output / expand input
	Words      []string `json:"words,omitempty"`      // expand output
	// Grounded reports whether every token expanded cleanly (dictionary or
	// metadata hit); false means at least one token was kept as-is.
	Grounded bool `json:"grounded"`
	// Source names the mechanism used: "crosswalk", "abbreviator",
	// "expander", or "expander+metadata".
	Source string `json:"source"`
}

// LinkResponse is the /v1/link schema-linking verdict.
type LinkResponse struct {
	Valid     bool    `json:"valid"`
	Recall    float64 `json:"recall"`
	Precision float64 `json:"precision"`
	F1        float64 `json:"f1"`
	// ExecCorrect is evaluated only when a db is supplied (relaxed execution
	// match of pred vs gold on that instance).
	ExecCorrect *bool `json:"exec_correct,omitempty"`
}

// HealthResponse is the /healthz body.
type HealthResponse struct {
	Status        string  `json:"status"` // "ok" | "draining"
	UptimeSeconds float64 `json:"uptime_seconds"`
	Databases     int     `json:"databases"`
}

// TracesResponse is the /debugz/traces body: the buffered request traces,
// oldest first (or slowest first when requested). With ?id= the response is
// a single-trace lookup — TraceID echoes the queried wire ID and Traces
// holds only views carrying it (on the router, stitched across processes).
type TracesResponse struct {
	Traces  []trace.View `json:"traces"`
	Slowest bool         `json:"slowest"`
	TraceID string       `json:"trace_id,omitempty"`
}

// parseVariant maps the wire form ("native", "regular", "low", "least",
// case-insensitive; empty defaults to native) to a schema variant.
func parseVariant(s string) (schema.Variant, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "native":
		return schema.VariantNative, nil
	case "regular", "n1":
		return schema.VariantRegular, nil
	case "low", "n2":
		return schema.VariantLow, nil
	case "least", "n3":
		return schema.VariantLeast, nil
	}
	return schema.VariantNative, fmt.Errorf("unknown variant %q (want native, regular, low, or least)", s)
}

// parseTarget maps a /v1/modify target to a naturalness level; empty
// defaults to Least for abbreviation (the paper's hardest setting) and is
// ignored for expansion.
func parseTarget(s string, fallback naturalness.Level) (naturalness.Level, error) {
	if strings.TrimSpace(s) == "" {
		return fallback, nil
	}
	return naturalness.ParseLevel(s)
}
