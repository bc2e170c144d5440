package af

import (
	"fmt"

	"audiofile/internal/proto"
)

// Atoms and properties (§5.9): the inter-client communication machinery
// adopted from X. Atoms are unique integer handles for strings;
// properties are named, typed data stored on devices.

// Atom is a unique id for an interned string.
type Atom uint32

// Predefined atoms (Table 2).
const (
	AtomNone             = Atom(proto.AtomNone)
	AtomATOM             = Atom(proto.AtomATOM)
	AtomCARDINAL         = Atom(proto.AtomCARDINAL)
	AtomINTEGER          = Atom(proto.AtomINTEGER)
	AtomSTRING           = Atom(proto.AtomSTRING)
	AtomAC               = Atom(proto.AtomAC)
	AtomDEVICE           = Atom(proto.AtomDEVICE)
	AtomTIME             = Atom(proto.AtomTIME)
	AtomMASK             = Atom(proto.AtomMASK)
	AtomTELEPHONE        = Atom(proto.AtomTELEPHONE)
	AtomCOPYRIGHT        = Atom(proto.AtomCOPYRIGHT)
	AtomFILENAME         = Atom(proto.AtomFILENAME)
	AtomLastNumberDialed = Atom(proto.AtomLastNumberDialed)
)

// Property change modes.
const (
	PropModeReplace = proto.PropModeReplace
	PropModePrepend = proto.PropModePrepend
	PropModeAppend  = proto.PropModeAppend
)

// InternAtom returns the atom for a name, interning it unless
// onlyIfExists is set (AFInternAtom). With onlyIfExists and no such atom,
// it returns AtomNone.
func (c *Conn) InternAtom(name string, onlyIfExists bool) (Atom, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep, err := c.roundTrip(proto.AppendInternAtom(&c.w, proto.InternAtomReq{
		OnlyIfExists: onlyIfExists, Name: name,
	}))
	if err != nil {
		return 0, err
	}
	return Atom(rep.Aux), nil
}

// GetAtomName returns the string an atom stands for (AFGetAtomName).
func (c *Conn) GetAtomName(a Atom) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep, err := c.roundTrip(proto.AppendGetAtomName(&c.w, uint32(a)))
	if err != nil {
		return "", err
	}
	r := proto.NewReader(c.order, rep.Extra)
	n := int(r.U16())
	r.Skip(2)
	name := r.String4(n)
	if r.Err != nil {
		return "", fmt.Errorf("af: bad GetAtomName reply: %w", r.Err)
	}
	return name, nil
}

// ChangeProperty stores (or extends) a property on a device
// (AFChangeProperty). format is 8, 16 or 32 bits per item.
func (c *Conn) ChangeProperty(device int, prop, typ Atom, format uint8, mode uint8, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.oneWay(proto.AppendChangeProperty(&c.w, proto.ChangePropertyReq{
		Device:   uint32(device),
		Property: uint32(prop),
		Type:     uint32(typ),
		Format:   format,
		Mode:     mode,
		Data:     data,
	}))
}

// DeleteProperty removes a property from a device (AFDeleteProperty).
func (c *Conn) DeleteProperty(device int, prop Atom) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.oneWay(proto.AppendDeleteProperty(&c.w, proto.DeletePropertyReq{
		Device:   uint32(device),
		Property: uint32(prop),
	}))
}

// PropertyValue is the result of GetProperty.
type PropertyValue struct {
	Type   Atom
	Format uint8
	Data   []byte
}

// GetProperty retrieves a property's value (AFGetProperty). With typ not
// AtomNone and a stored type mismatch, Data is nil and Type reports the
// actual type. With del set, a successful full read deletes the property.
// A missing property returns Type AtomNone.
func (c *Conn) GetProperty(device int, prop, typ Atom, del bool) (PropertyValue, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep, err := c.roundTrip(proto.AppendGetProperty(&c.w, proto.GetPropertyReq{
		Device:   uint32(device),
		Property: uint32(prop),
		Type:     uint32(typ),
		Delete:   del,
	}))
	if err != nil {
		return PropertyValue{}, err
	}
	r := proto.NewReader(c.order, rep.Extra)
	v := PropertyValue{Format: rep.Data}
	v.Type = Atom(r.U32())
	// A length word past int's range is negative on 32 bits, which
	// BytesRef refuses like any length past the reply.
	v.Data = append([]byte(nil), r.BytesRef(int(r.U32()))...)
	if r.Err != nil {
		return PropertyValue{}, fmt.Errorf("af: bad GetProperty reply: %w", r.Err)
	}
	return v, nil
}

// ListProperties returns the atoms of the properties on a device
// (AFListProperties).
func (c *Conn) ListProperties(device int) ([]Atom, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep, err := c.roundTrip(proto.AppendDeviceReq(&c.w, proto.OpListProperties, uint32(device)))
	if err != nil {
		return nil, err
	}
	// Aux is the server's word: reserve no more atoms than Extra holds.
	r := proto.NewReader(c.order, rep.Extra)
	atoms := make([]Atom, 0, min(rep.Aux, uint32(len(rep.Extra)/4)))
	for range rep.Aux {
		a := Atom(r.U32())
		if r.Err != nil {
			return nil, fmt.Errorf("af: bad ListProperties reply: %w", r.Err)
		}
		atoms = append(atoms, a)
	}
	return atoms, nil
}
