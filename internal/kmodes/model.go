package kmodes

import (
	"encoding/gob"
	"fmt"
	"io"

	"lshcluster/internal/dataset"
)

// Model is an immutable snapshot of trained cluster modes. Value IDs are
// relative to the dictionary of the dataset the model was trained on, so
// a persisted model is only meaningful together with data interned
// through the same dictionary (or the same generator configuration for
// numeric-ID datasets).
type Model struct {
	K     int
	M     int
	Modes []dataset.Value // K·M row-major
}

// Mode returns cluster c's mode vector. The slice aliases the model.
func (m *Model) Mode(c int) []dataset.Value {
	return m.Modes[c*m.M : (c+1)*m.M]
}

// Predict returns the cluster whose mode is nearest to row (ties towards
// the lowest cluster index), plus the dissimilarity.
func (m *Model) Predict(row []dataset.Value) (cluster, mismatches int) {
	if len(row) != m.M {
		panic("kmodes: Predict row arity mismatch")
	}
	best, bestD := 0, m.M+1
	for c := 0; c < m.K; c++ {
		d := dataset.MismatchesBounded(row, m.Mode(c), bestD)
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}

// modelWire is the gob wire format, versioned for forward evolution.
type modelWire struct {
	Version int
	K, M    int
	Modes   []uint32
}

// Save serialises the model with encoding/gob.
func (m *Model) Save(w io.Writer) error {
	wire := modelWire{Version: 1, K: m.K, M: m.M, Modes: make([]uint32, len(m.Modes))}
	for i, v := range m.Modes {
		wire.Modes[i] = uint32(v)
	}
	if err := gob.NewEncoder(w).Encode(wire); err != nil {
		return fmt.Errorf("kmodes: encoding model: %w", err)
	}
	return nil
}

// LoadModel reads a model previously written by Save.
func LoadModel(r io.Reader) (*Model, error) {
	var wire modelWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("kmodes: decoding model: %w", err)
	}
	if wire.Version != 1 {
		return nil, fmt.Errorf("kmodes: unsupported model version %d", wire.Version)
	}
	// K·M can overflow int, so the length is divided, never multiplied.
	if wire.K < 1 || wire.M < 1 || len(wire.Modes)%wire.M != 0 || len(wire.Modes)/wire.M != wire.K {
		return nil, fmt.Errorf("kmodes: corrupt model (k=%d m=%d len=%d)", wire.K, wire.M, len(wire.Modes))
	}
	m := &Model{K: wire.K, M: wire.M, Modes: make([]dataset.Value, len(wire.Modes))}
	for i, v := range wire.Modes {
		m.Modes[i] = dataset.Value(v)
	}
	return m, nil
}
