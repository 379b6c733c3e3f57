package micronn

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"micronn/internal/ivf"
)

// Typed sentinel errors. Every error returned by DB and ShardedDB that a
// caller can act on programmatically wraps one of these, so call sites can
// use errors.Is instead of matching message strings:
//
//	if errors.Is(err, micronn.ErrNotFound) { ... }
//
// The CLI maps each sentinel to a distinct exit code.
var (
	// ErrNotFound is returned when an id is absent (Get, Delete).
	ErrNotFound = errors.New("micronn: not found")
	// ErrClosed is returned by any operation on a database handle whose
	// Close has already been called.
	ErrClosed = errors.New("micronn: database is closed")
	// ErrDimMismatch is returned when a vector's dimensionality does not
	// match the database's configured Dim (upserts and queries).
	ErrDimMismatch = errors.New("micronn: dimension mismatch")
	// ErrBadRequest is returned when a request fails validation before
	// touching the store: negative K/NProbe/RerankFactor, a K or
	// K·RerankFactor beyond int32, a NaN or ±Inf vector component, an
	// invalid option value at Open, and similar caller mistakes.
	ErrBadRequest = errors.New("micronn: bad request")
	// ErrUnsupportedFormat is returned by Open and OpenSharded for any
	// store without this version's format marker. The store's files are
	// left unmodified.
	ErrUnsupportedFormat = errors.New("micronn: unsupported store format")
)

// badRequestf builds an ErrBadRequest-wrapped validation error.
func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
}

// checkFinite rejects a vector with a NaN or ±Inf component. One such
// component makes every distance to the vector NaN or infinite, which
// breaks the top-K order and collapses k-means onto one partition.
func checkFinite(v []float32) error {
	for i, x := range v {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return badRequestf("vector component %d is %v", i, x)
		}
	}
	return nil
}

// normalizeKnobs is the single validation-and-defaulting path for the knobs
// every query kind shares — K, NProbe and RerankFactor — so their rules
// cannot drift between Search, BatchSearch and HybridSearch. Under Exact it
// zeroes NProbe and RerankFactor: the exhaustive path reads neither, and
// zeroing them keeps the cache fingerprints of equal-by-behavior requests
// identical.
func normalizeKnobs(k, nprobe, rerank *int, exact bool, cfg ivf.Config) error {
	if *k < 0 {
		return badRequestf("K %d must not be negative", *k)
	}
	if *nprobe < 0 {
		return badRequestf("NProbe %d must not be negative", *nprobe)
	}
	if *rerank < 0 {
		return badRequestf("RerankFactor %d must not be negative", *rerank)
	}
	if *k > math.MaxInt32 {
		return badRequestf("K %d exceeds %d", *k, math.MaxInt32)
	}
	if *k == 0 {
		*k = 10
	}
	switch {
	case exact:
		*nprobe, *rerank = 0, 0
		return nil
	case *nprobe == 0:
		*nprobe = 8
	}
	if cfg.Quantization == QuantNone {
		*rerank = 0
	} else if *rerank == 0 {
		*rerank = cfg.RerankFactor
	}
	// A quantized scan keeps K·RerankFactor candidates per query; the
	// division keeps the check itself from overflowing.
	if *rerank > 0 && *k > math.MaxInt32 / *rerank {
		return badRequestf("K %d × RerankFactor %d exceeds %d", *k, *rerank, math.MaxInt32)
	}
	return nil
}

// normalizeSearchRequest validates and defaults a single-vector query
// under the store configuration cfg, mutating req in place. Validation
// failures return ErrBadRequest or ErrDimMismatch. Idempotent.
func normalizeSearchRequest(req *SearchRequest, cfg ivf.Config) error {
	if err := normalizeKnobs(&req.K, &req.NProbe, &req.RerankFactor, req.Exact, cfg); err != nil {
		return err
	}
	if len(req.Vector) != cfg.Dim {
		return fmt.Errorf("%w: query dimension %d, want %d", ErrDimMismatch, len(req.Vector), cfg.Dim)
	}
	return checkFinite(req.Vector)
}

// normalizeBatchSearchRequest is the batch analog of
// normalizeSearchRequest.
func normalizeBatchSearchRequest(req *BatchSearchRequest, cfg ivf.Config) error {
	if err := normalizeKnobs(&req.K, &req.NProbe, &req.RerankFactor, false, cfg); err != nil {
		return err
	}
	for i, q := range req.Vectors {
		if len(q) != cfg.Dim {
			return fmt.Errorf("%w: query %d: dimension %d, want %d", ErrDimMismatch, i, len(q), cfg.Dim)
		}
		if err := checkFinite(q); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
	}
	return nil
}

// normalizeHybridRequest is the hybrid (lexical + vector) analog: the
// vector-leg knobs follow normalizeSearchRequest's rules exactly, and the
// lexical-leg knobs (TextCol, FusionK, fusion weights) are canonicalized
// against ix's full-text columns so equal-by-behavior requests produce
// identical cache fingerprints. Idempotent.
func normalizeHybridRequest(req *HybridRequest, ix *ivf.Index) error {
	cfg := ix.Config()
	if err := normalizeKnobs(&req.K, &req.NProbe, &req.RerankFactor, req.Exact, cfg); err != nil {
		return err
	}
	if req.FusionK < 0 {
		return badRequestf("FusionK %d must not be negative", req.FusionK)
	}
	if req.VectorWeight < 0 || req.TextWeight < 0 {
		return badRequestf("fusion weights must not be negative")
	}
	if len(req.Vector) != cfg.Dim {
		return fmt.Errorf("%w: query dimension %d, want %d", ErrDimMismatch, len(req.Vector), cfg.Dim)
	}
	if err := checkFinite(req.Vector); err != nil {
		return err
	}
	if req.Text == "" {
		// Pure vector query: zero every lexical knob so the request is
		// byte-equal to its Search counterpart in behavior and fingerprint.
		req.TextCol = ""
		req.FusionK = 0
		req.Weighted = false
		req.VectorWeight, req.TextWeight = 0, 0
		return nil
	}
	if req.TextCol == "" {
		ftsCols := ix.FullTextColumns()
		switch len(ftsCols) {
		case 1:
			req.TextCol = ftsCols[0]
		case 0:
			return badRequestf("hybrid text search requires a FullText attribute")
		default:
			return badRequestf("TextCol required: store has %d full-text attributes", len(ftsCols))
		}
	} else if !slices.Contains(ix.FullTextColumns(), req.TextCol) {
		return badRequestf("TextCol %q has no full-text index", req.TextCol)
	}
	if req.FusionK == 0 {
		req.FusionK = defaultFusionK
	}
	if !req.Weighted {
		req.VectorWeight, req.TextWeight = 0, 0
	} else if req.VectorWeight == 0 && req.TextWeight == 0 {
		req.VectorWeight, req.TextWeight = 0.5, 0.5
	}
	return nil
}
