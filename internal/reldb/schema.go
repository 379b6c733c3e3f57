package reldb

import (
	"encoding/json"
	"fmt"
)

// Column declares a named, typed column.
type Column struct {
	Name string  `json:"name"`
	Type ColType `json:"type"`
}

// Schema describes a table: primary-key columns (which define the clustered
// order on disk) followed by value columns. The vector table's schema keys
// on (partition id, vector id), which is exactly how the paper obtains
// partition locality from SQLite's clustered index.
type Schema struct {
	Name string   `json:"name"`
	Key  []Column `json:"key"`
	Cols []Column `json:"cols"`
}

// NumColumns returns the total column count (key + value columns).
func (s *Schema) NumColumns() int { return len(s.Key) + len(s.Cols) }

// ColumnIndex returns the position of the named column in a full row, and
// whether it is part of the primary key.
func (s *Schema) ColumnIndex(name string) (pos int, isKey bool, err error) {
	for i, c := range s.Key {
		if c.Name == name {
			return i, true, nil
		}
	}
	for i, c := range s.Cols {
		if c.Name == name {
			return len(s.Key) + i, false, nil
		}
	}
	return 0, false, fmt.Errorf("reldb: table %s has no column %q", s.Name, name)
}

// validateRow checks arity and types (null allowed in value columns only).
func (s *Schema) validateRow(row Row) error {
	if len(row) != s.NumColumns() {
		return fmt.Errorf("reldb: table %s expects %d columns, got %d", s.Name, s.NumColumns(), len(row))
	}
	for i, c := range s.Key {
		if row[i].Type != c.Type {
			return fmt.Errorf("reldb: table %s key column %s: want %v, got %v", s.Name, c.Name, c.Type, row[i].Type)
		}
	}
	for i, c := range s.Cols {
		v := row[len(s.Key)+i]
		if !v.IsNull() && v.Type != c.Type {
			return fmt.Errorf("reldb: table %s column %s: want %v, got %v", s.Name, c.Name, c.Type, v.Type)
		}
	}
	return nil
}

// catalogEntry is the persisted description of a table or index.
type catalogEntry struct {
	Kind   string   `json:"kind"` // "table" or "index"
	Root   uint32   `json:"root"`
	Schema *Schema  `json:"schema,omitempty"`
	Table  string   `json:"table,omitempty"` // for indexes
	Cols   []string `json:"cols,omitempty"`  // for indexes
}

func (e *catalogEntry) marshal() ([]byte, error) { return json.Marshal(e) }

func unmarshalCatalogEntry(b []byte) (*catalogEntry, error) {
	var e catalogEntry
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("reldb: corrupt catalog entry: %w", err)
	}
	return &e, nil
}
