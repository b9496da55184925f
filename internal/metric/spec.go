package metric

import "fmt"

// SpaceSpec is the wire description of a bounded metric space: enough
// for a remote peer (the scatter-gather router) to reconstruct the same
// Space and price, prune, and merge with arithmetic identical to the
// node that indexed the data. Only the named, parameter-free distance
// functions travel — a space built around a closure (Lp(2.5)) has no
// spec and must stay process-local.
type SpaceSpec struct {
	// Name selects the distance function ("L1", "L2", "Linf", "edit",
	// "hamming").
	Name string `json:"name"`
	// Bound is d+, the space's finite distance bound.
	Bound float64 `json:"bound"`
	// Discrete mirrors Space.Discrete (integer-valued metrics).
	Discrete bool `json:"discrete,omitempty"`
}

// Spec returns the space's wire description. The zero SpaceSpec (empty
// Name) comes back for unnamed or closure-based spaces; FromSpec will
// refuse it.
func (s *Space) Spec() SpaceSpec {
	return SpaceSpec{Name: s.Name, Bound: s.Bound, Discrete: s.Discrete}
}

// specDistances maps spec names to the package's named metrics. Every
// entry must be a pure function of its operands so two processes
// resolving the same name compute bit-identical distances.
var specDistances = map[string]DistanceFunc{
	"L1":      L1,
	"L2":      L2,
	"Linf":    LInf,
	"edit":    Levenshtein,
	"hamming": Hamming,
}

// FromSpec reconstructs the Space a spec describes. The returned space
// computes distances bit-identically to the space the spec was taken
// from: both resolve to the same named function.
func FromSpec(sp SpaceSpec) (*Space, error) {
	d, ok := specDistances[sp.Name]
	if !ok {
		return nil, fmt.Errorf("metric: no named distance %q (spec carries only named metrics)", sp.Name)
	}
	s := &Space{Name: sp.Name, Distance: d, Bound: sp.Bound, Discrete: sp.Discrete}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
