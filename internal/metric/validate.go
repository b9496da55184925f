package metric

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalidQuery is the sentinel wrapped by every ValidateQuery
// failure (match with errors.Is). Serving layers map it to a 4xx; the
// facade returns it before any distance computation runs, so a
// wrong-dimension or wrong-length query object can never reach a
// distance function that would panic on it.
var ErrInvalidQuery = errors.New("metric: invalid query object")

// ValidateQuery checks that q is a usable query object for a space
// whose indexed objects look like sample. It enforces the domain
// checks the distance functions themselves handle by panicking —
// type, vector dimension, finite coordinates, exact bit-string length
// for Hamming — plus the edit-space length bound, and returns a typed
// error instead. A nil space skips the name-specific checks.
func ValidateQuery(s *Space, sample, q Object) error {
	if q == nil {
		return fmt.Errorf("%w: nil object", ErrInvalidQuery)
	}
	switch ref := sample.(type) {
	case Vector:
		v, ok := q.(Vector)
		if !ok {
			return fmt.Errorf("%w: expected a %d-dimensional vector, got %T", ErrInvalidQuery, len(ref), q)
		}
		if len(v) != len(ref) {
			return fmt.Errorf("%w: query has %d coordinates, index is %d-dimensional", ErrInvalidQuery, len(v), len(ref))
		}
		for i, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("%w: coordinate %d is not finite", ErrInvalidQuery, i)
			}
		}
	case string:
		t, ok := q.(string)
		if !ok {
			return fmt.Errorf("%w: expected a string, got %T", ErrInvalidQuery, q)
		}
		if s == nil {
			return nil
		}
		switch s.Name {
		case "hamming":
			if len(t) != len(ref) {
				return fmt.Errorf("%w: hamming query must be exactly %d bytes, got %d", ErrInvalidQuery, len(ref), len(t))
			}
		case "edit":
			if s.Bound > 0 && float64(len(t)) > s.Bound {
				return fmt.Errorf("%w: query is %d bytes, edit space bounds strings at %d", ErrInvalidQuery, len(t), int(s.Bound))
			}
		}
	}
	return nil
}
