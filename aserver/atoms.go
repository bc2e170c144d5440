package aserver

import "audiofile/internal/proto"

// Atoms and properties (§5.9): short unique integer handles for strings,
// and named typed data attached to devices, adopted from X for
// inter-client communication.

type atomTable struct {
	names []string          // id -> name; index 0 is None
	ids   map[string]uint32 // name -> id
}

func newAtomTable() *atomTable {
	t := &atomTable{
		names: make([]string, len(proto.BuiltinAtomNames)),
		ids:   make(map[string]uint32),
	}
	for id, name := range proto.BuiltinAtomNames {
		if id == 0 {
			continue
		}
		t.names[id] = name
		t.ids[name] = uint32(id)
	}
	return t
}

// intern returns the atom for name, allocating one unless onlyIfExists.
func (t *atomTable) intern(name string, onlyIfExists bool) uint32 {
	if id, ok := t.ids[name]; ok {
		return id
	}
	if onlyIfExists {
		return 0
	}
	id := uint32(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = id
	return id
}

// name returns the string for an atom id, or "" if unknown.
func (t *atomTable) name(id uint32) string {
	if id == 0 || id >= uint32(len(t.names)) {
		return ""
	}
	return t.names[id]
}

// valid reports whether id names an existing atom.
func (t *atomTable) valid(id uint32) bool {
	return id != 0 && id < uint32(len(t.names))
}

// property is named, typed data stored on a device.
type property struct {
	typ    uint32 // type atom
	format uint8  // 8, 16, or 32
	data   []byte
}
