package model

import (
	"fmt"
	"strings"
)

// Mux registers predictors by name and resolves lookups with normalized
// (case/space/dash-insensitive) matching. Registration order is
// preserved: All and Infos iterate in the order predictors were added,
// which is how evaluation tables and /v1/models keep a stable layout.
//
// A Mux is built once and then only read, so it needs no locking; the
// serving path shares one Mux across request goroutines.
type Mux struct {
	names []string
	byKey map[string]*Predictor
}

// NewMux returns an empty Mux.
func NewMux() *Mux {
	return &Mux{byKey: make(map[string]*Predictor)}
}

// Register adds a predictor. Registering a second predictor whose
// normalized name collides with an existing one is a programming error.
func (m *Mux) Register(p *Predictor) error {
	key := normalize(p.Name())
	if key == "" {
		return fmt.Errorf("model: predictor with empty name")
	}
	if _, dup := m.byKey[key]; dup {
		return fmt.Errorf("model: duplicate predictor %q", p.Name())
	}
	m.byKey[key] = p
	m.names = append(m.names, p.Name())
	return nil
}

// MustRegister is Register for static registration sets, where a
// collision is a bug, not a runtime condition.
func (m *Mux) MustRegister(p *Predictor) {
	if err := m.Register(p); err != nil {
		panic(err)
	}
}

// Get resolves a predictor by name. Unknown names return an error
// wrapping ErrUnknownModel that lists the registered names.
func (m *Mux) Get(name string) (*Predictor, error) {
	p, ok := m.byKey[normalize(name)]
	if !ok {
		return nil, unknownErr(name, m.names)
	}
	return p, nil
}

// All returns the predictors in registration order.
func (m *Mux) All() []*Predictor {
	out := make([]*Predictor, 0, len(m.names))
	for _, name := range m.names {
		out = append(out, m.byKey[normalize(name)])
	}
	return out
}

// Names returns the canonical names in registration order.
func (m *Mux) Names() []string {
	return append([]string(nil), m.names...)
}

// Info is the wire description of one registered predictor, served by
// /v1/models and recorded in registry manifests.
type Info struct {
	Name       string `json:"name"`
	Kind       string `json:"kind"`
	Trained    bool   `json:"trained"`
	Tabulated  bool   `json:"tabulated,omitempty"`
	Provenance string `json:"provenance,omitempty"`
}

// Infos snapshots every registered predictor's live state in
// registration order.
func (m *Mux) Infos() []Info {
	out := make([]Info, 0, len(m.names))
	for _, p := range m.All() {
		meta := p.Meta()
		out = append(out, Info{
			Name:       p.Name(),
			Kind:       string(meta.Kind),
			Trained:    meta.Trained,
			Tabulated:  meta.Tabulated,
			Provenance: meta.Provenance,
		})
	}
	return out
}

// Policy is an ordered fallback chain of predictor names: the first
// trained predictor wins. It replaces the hard-coded NN→GNN→XGBoost-PL
// switches the scoring and optimal-token paths used to duplicate.
type Policy []string

// DefaultPolicy is the paper's recommended preference (Table 7's
// accuracy/cost balance): NN, then GNN, then XGBoost PL. XGBoost is
// always trained, so the chain terminates.
var DefaultPolicy = Policy{NameNN, NameGNN, NameXGBPL}

// Select returns the first trained predictor in the chain. A name not
// registered in the Mux fails with ErrUnknownModel (a misconfigured
// policy should be loud, not silently skipped); a chain with no trained
// predictor fails with ErrUntrained.
func (pol Policy) Select(m *Mux) (*Predictor, error) {
	chain := pol
	if len(chain) == 0 {
		chain = DefaultPolicy
	}
	for _, name := range chain {
		p, err := m.Get(name)
		if err != nil {
			return nil, err
		}
		if p.Meta().Trained {
			return p, nil
		}
	}
	return nil, fmt.Errorf("%w: no trained predictor in policy %v", ErrUntrained, chain)
}

// Check resolves every name in the chain, failing with ErrUnknownModel on
// the first one no predictor is registered under — so a typo'd chain is
// refused once at startup instead of failing Select on every request.
func (pol Policy) Check(m *Mux) error {
	for _, name := range pol {
		if _, err := m.Get(name); err != nil {
			return err
		}
	}
	return nil
}

// ParsePolicy parses a comma-separated chain ("nn,gnn,xgboost-pl").
// Empty input returns a nil Policy, which Select treats as the default.
func ParsePolicy(s string) Policy {
	var pol Policy
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			pol = append(pol, part)
		}
	}
	return pol
}

// String renders the chain in ParsePolicy's format.
func (pol Policy) String() string {
	return strings.Join(pol, ",")
}
