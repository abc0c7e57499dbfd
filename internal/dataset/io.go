package dataset

import (
	"encoding/json"
	"fmt"
	"io"
)

// JSON interchange format for target sets: the same schema cmd/datagen
// emits, so synthetic worlds can be exported, edited, and re-imported --
// or replaced wholesale with real data (e.g. a Global Fishing Watch
// export converted to this schema).

// jsonTarget mirrors Target for serialization.
type jsonTarget struct {
	ID         int     `json:"id"`
	Lat        float64 `json:"lat"`
	Lon        float64 `json:"lon"`
	SpeedMS    float64 `json:"speed_ms,omitempty"`
	HeadingDeg float64 `json:"heading_deg,omitempty"`
	Value      float64 `json:"value"`
	AreaKM2    float64 `json:"area_km2,omitempty"`
	AppearS    float64 `json:"appear_s,omitempty"`
	VanishS    float64 `json:"vanish_s,omitempty"`
}

type jsonSet struct {
	Name    string       `json:"name"`
	Moving  bool         `json:"moving"`
	Count   int          `json:"count"`
	Targets []jsonTarget `json:"targets"`
}

// WriteJSON serializes the set (optionally truncated to limit targets;
// limit <= 0 writes all) in the interchange schema.
func (s *Set) WriteJSON(w io.Writer, limit int) error {
	targets := s.Targets
	if limit > 0 && limit < len(targets) {
		targets = targets[:limit]
	}
	js := jsonSet{Name: s.Name, Moving: s.Moving, Count: len(s.Targets)}
	js.Targets = make([]jsonTarget, 0, len(targets))
	for _, t := range targets {
		js.Targets = append(js.Targets, jsonTarget{
			ID: t.ID, Lat: t.Pos.Lat, Lon: t.Pos.Lon,
			SpeedMS: t.SpeedMS, HeadingDeg: t.HeadingDeg,
			Value: t.Value, AreaKM2: t.AreaKM2,
			AppearS: t.AppearS, VanishS: t.VanishS,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(js)
}

// ReadJSON parses a set from the interchange schema and validates it.
// Values default to 1 when omitted (real exports rarely carry priorities).
func ReadJSON(r io.Reader) (*Set, error) {
	var js jsonSet
	dec := json.NewDecoder(r)
	if err := dec.Decode(&js); err != nil {
		return nil, fmt.Errorf("dataset: decode: %w", err)
	}
	s := &Set{Name: js.Name, Moving: js.Moving, Targets: make([]Target, 0, len(js.Targets))}
	if s.Name == "" {
		s.Name = "imported"
	}
	for i, jt := range js.Targets {
		v := jt.Value
		if v == 0 {
			v = 1
		}
		id := jt.ID
		if id == 0 && i > 0 && js.Targets[0].ID == 0 {
			// Exports without IDs: assign positions.
			id = i
		}
		s.Targets = append(s.Targets, Target{
			ID: id, Pos: normalizePos(jt.Lat, jt.Lon),
			SpeedMS: jt.SpeedMS, HeadingDeg: jt.HeadingDeg,
			Value: v, AreaKM2: jt.AreaKM2,
			AppearS: jt.AppearS, VanishS: jt.VanishS,
		})
		if jt.SpeedMS > 0 {
			s.Moving = true
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
