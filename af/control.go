package af

import (
	"fmt"

	"audiofile/internal/proto"
)

// Device I/O control, gain control, telephony, and access control
// (Tables 3 and 4).

// asyncDeviceReq buffers a device-only request.
func (c *Conn) asyncDeviceReq(op uint8, device int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.oneWay(proto.AppendDeviceReq(&c.w, op, uint32(device)))
}

// asyncMaskReq buffers a device+mask request.
func (c *Conn) asyncMaskReq(op uint8, device int, mask uint32) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.oneWay(proto.AppendDeviceMaskReq(&c.w, op, proto.DeviceMaskReq{
		Device: uint32(device), Mask: mask,
	}))
}

// EnableInput enables device inputs by mask (AFEnableInput).
func (c *Conn) EnableInput(device int, mask uint32) error {
	return c.asyncMaskReq(proto.OpEnableInput, device, mask)
}

// DisableInput disables device inputs by mask (AFDisableInput).
func (c *Conn) DisableInput(device int, mask uint32) error {
	return c.asyncMaskReq(proto.OpDisableInput, device, mask)
}

// EnableOutput enables device outputs by mask (AFEnableOutput).
func (c *Conn) EnableOutput(device int, mask uint32) error {
	return c.asyncMaskReq(proto.OpEnableOutput, device, mask)
}

// DisableOutput disables device outputs by mask (AFDisableOutput).
func (c *Conn) DisableOutput(device int, mask uint32) error {
	return c.asyncMaskReq(proto.OpDisableOutput, device, mask)
}

// SetInputGain sets a device's master input gain in dB (AFSetInputGain).
func (c *Conn) SetInputGain(device int, gainDB int) error {
	return c.setGain(proto.OpSetInputGain, device, gainDB)
}

// SetOutputGain sets a device's output gain — the volume control — in dB
// (AFSetOutputGain).
func (c *Conn) SetOutputGain(device int, gainDB int) error {
	return c.setGain(proto.OpSetOutputGain, device, gainDB)
}

func (c *Conn) setGain(op uint8, device, gainDB int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.oneWay(proto.AppendGainReq(&c.w, op, proto.GainReq{
		Device: uint32(device), Gain: int32(gainDB),
	}))
}

// QueryInputGain returns the current, minimum and maximum input gain of a
// device in dB (AFQueryInputGain).
func (c *Conn) QueryInputGain(device int) (cur, min, max int, err error) {
	return c.queryGain(proto.OpQueryInputGain, device)
}

// QueryOutputGain returns the current, minimum and maximum output gain of
// a device in dB (AFQueryOutputGain).
func (c *Conn) QueryOutputGain(device int) (cur, min, max int, err error) {
	return c.queryGain(proto.OpQueryOutputGain, device)
}

func (c *Conn) queryGain(op uint8, device int) (cur, min, max int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep, err := c.roundTrip(proto.AppendDeviceReq(&c.w, op, uint32(device)))
	if err != nil {
		return
	}
	r := proto.NewReader(c.order, rep.Extra)
	cur = int(int32(rep.Aux))
	min = int(r.I32())
	max = int(r.I32())
	return
}

// --- Telephony ---

// HookSwitch sets the hookswitch state of a telephone device
// (AFHookSwitch): offHook true answers or originates; false hangs up.
func (c *Conn) HookSwitch(device int, offHook bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	state := uint8(proto.HookOn)
	if offHook {
		state = proto.HookOff
	}
	return c.oneWay(proto.AppendHookSwitch(&c.w, proto.HookSwitchReq{
		Device: uint32(device), State: state,
	}))
}

// FlashHook flashes the hookswitch for the given duration in milliseconds
// (AFFlashHook); 0 uses the server default.
func (c *Conn) FlashHook(device int, durationMs int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.oneWay(proto.AppendFlashHook(&c.w, proto.FlashHookReq{
		Device: uint32(device), DurationMs: uint32(durationMs),
	}))
}

// QueryPhone returns a telephone device's hookswitch and loop-current
// state (AFQueryPhone).
func (c *Conn) QueryPhone(device int) (offHook, loopCurrent bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep, err := c.roundTrip(proto.AppendDeviceReq(&c.w, proto.OpQueryPhone, uint32(device)))
	if err != nil {
		return
	}
	return rep.Data != 0, rep.Aux != 0, nil
}

// EnablePassThrough connects the inputs and outputs of two audio devices
// directly inside the server (AFEnablePassThrough) — the LoFi telephone/
// local-audio patch.
func (c *Conn) EnablePassThrough(device, other int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.oneWay(proto.AppendEnablePassThrough(&c.w, proto.PassThroughReq{
		Device: uint32(device), Other: uint32(other),
	}))
}

// DisablePassThrough removes a pass-through connection
// (AFDisablePassThrough).
func (c *Conn) DisablePassThrough(device int) error {
	return c.asyncDeviceReq(proto.OpDisablePassThrough, device)
}

// --- Access control ---

// HostEntry identifies one host in the server access list: its Family
// is FamilyInternet, FamilyInternet6 or FamilyLocal.
type HostEntry = proto.HostEntry

// Host address families.
const (
	FamilyInternet  = proto.FamilyInternet
	FamilyInternet6 = proto.FamilyInternet6
	FamilyLocal     = proto.FamilyLocal
)

// SetAccessControl enables or disables host access control
// (AFSetAccessControl; AFEnableAccessControl / AFDisableAccessControl).
func (c *Conn) SetAccessControl(enable bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.oneWay(proto.AppendSetAccessControl(&c.w, enable))
}

// AddHost adds a host to the access list (AFAddHost).
func (c *Conn) AddHost(h HostEntry) error {
	return c.changeHost(proto.HostInsert, h)
}

// RemoveHost removes a host from the access list (AFRemoveHost).
func (c *Conn) RemoveHost(h HostEntry) error {
	return c.changeHost(proto.HostDelete, h)
}

// AddHosts adds several hosts to the access list (AFAddHosts).
func (c *Conn) AddHosts(hs []HostEntry) error {
	for _, h := range hs {
		if err := c.AddHost(h); err != nil {
			return err
		}
	}
	return nil
}

// RemoveHosts removes several hosts from the access list (AFRemoveHosts).
func (c *Conn) RemoveHosts(hs []HostEntry) error {
	for _, h := range hs {
		if err := c.RemoveHost(h); err != nil {
			return err
		}
	}
	return nil
}

func (c *Conn) changeHost(mode uint8, h HostEntry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.oneWay(proto.AppendChangeHosts(&c.w, proto.ChangeHostsReq{Mode: mode, Host: h}))
}

// ListHosts returns the access list and whether access control is
// currently enforced (AFListHosts).
func (c *Conn) ListHosts() (enabled bool, hosts []HostEntry, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep, err := c.roundTrip(proto.AppendEmptyReq(&c.w, proto.OpListHosts, 0))
	if err != nil {
		return
	}
	r := proto.NewReader(c.order, rep.Extra)
	hosts = proto.DecodeHostList(r, rep.Aux)
	if r.Err != nil {
		return false, nil, fmt.Errorf("af: bad ListHosts reply: %w", r.Err)
	}
	return rep.Data != 0, hosts, nil
}

// --- Extensions and housekeeping ---

// QueryExtension asks whether a named protocol extension is present
// (AFQueryExtension). No extensions are implemented today.
func (c *Conn) QueryExtension(name string) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep, err := c.roundTrip(proto.AppendQueryExtension(&c.w, proto.QueryExtensionReq{Name: name}))
	if err != nil {
		return false, err
	}
	return rep.Data != 0, nil
}

// ListExtensions returns the names of present protocol extensions
// (AFListExtensions).
func (c *Conn) ListExtensions() ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep, err := c.roundTrip(proto.AppendEmptyReq(&c.w, proto.OpListExtensions, 0))
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, rep.Data)
	r := proto.NewReader(c.order, rep.Extra)
	for i := 0; i < int(rep.Data); i++ {
		n := int(r.U8())
		names = append(names, r.String4(n))
	}
	if r.Err != nil {
		return nil, fmt.Errorf("af: bad ListExtensions reply: %w", r.Err)
	}
	return names, nil
}
