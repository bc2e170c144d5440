package aserver

import "sort"

// Directory is a static consistent-hash map from routing keys (device or
// session names) to backend afds. Each backend projects Replicas virtual
// points onto a 64-bit hash ring; a key is served by the first live
// backend at or clockwise from the key's own point. The construction is
// pure arithmetic over the backend names — two processes given the same
// names and replica count build bit-identical rings, so a router fleet
// agrees on placement with no coordination, and adding or removing one
// backend of N moves only ~K/N of K keys (the points owned by the
// changed backend) instead of reshuffling everything.
type Directory struct {
	backends []string
	replicas int
	ring     []ringPoint // sorted by hash
}

type ringPoint struct {
	hash    uint64
	backend int // index into backends
}

// DefaultDirectoryReplicas is the virtual-point count per backend when
// NewDirectory is given zero: enough that load splits within a few
// percent of even for small fleets.
const DefaultDirectoryReplicas = 128

// NewDirectory builds the ring for the given backend names. Order of the
// names does not affect placement (hashing ignores the index), but the
// returned backend indices refer to this slice.
func NewDirectory(backends []string, replicas int) *Directory {
	if replicas <= 0 {
		replicas = DefaultDirectoryReplicas
	}
	d := &Directory{
		backends: append([]string(nil), backends...),
		replicas: replicas,
		ring:     make([]ringPoint, 0, len(backends)*replicas),
	}
	for i, name := range d.backends {
		for v := 0; v < replicas; v++ {
			h := fnv1a(name)
			h = fnv1aByte(h, '#')
			h = fnv1aU32(h, uint32(v))
			d.ring = append(d.ring, ringPoint{hash: mix64(h), backend: i})
		}
	}
	sort.Slice(d.ring, func(a, b int) bool {
		if d.ring[a].hash != d.ring[b].hash {
			return d.ring[a].hash < d.ring[b].hash
		}
		// Hash ties (vanishingly rare) break by name so the winner does
		// not depend on the order backends were listed in.
		return d.backends[d.ring[a].backend] < d.backends[d.ring[b].backend]
	})
	return d
}

// Lookup returns the backend index owning key, ignoring health, or -1
// for an empty directory.
func (d *Directory) Lookup(key string) int {
	return d.LookupLive(key, nil)
}

// LookupLive returns the first backend at or clockwise from key's ring
// point for which live reports true (nil means all live), or -1 when no
// live backend exists. Skipping a dead backend hands its keys to the
// next point's owner — the same placement a directory built without that
// backend would choose for most keys — so failover targets are as stable
// as the ring itself.
func (d *Directory) LookupLive(key string, live func(backend int) bool) int {
	if len(d.ring) == 0 {
		return -1
	}
	h := mix64(fnv1a(key))
	start := sort.Search(len(d.ring), func(i int) bool { return d.ring[i].hash >= h })
	for i := range d.ring {
		b := d.ring[(start+i)%len(d.ring)].backend
		if live == nil || live(b) {
			return b
		}
	}
	return -1
}

// mix64 is the splitmix64 finalizer: FNV-1a alone clusters badly for
// short sequential inputs ("device-0".."device-N", vnode counters), so
// every ring point and key hash gets one full-avalanche pass before
// placement. Fixed constants keep it process-independent.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// fnv1a is the 64-bit FNV-1a hash: standard, allocation-free, and — the
// property the ring depends on — identical in every process and on every
// platform, unlike maphash or any seeded hash.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func fnv1aByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= 1099511628211
	return h
}

func fnv1aU32(h uint64, v uint32) uint64 {
	for shift := 0; shift < 32; shift += 8 {
		h = fnv1aByte(h, byte(v>>shift))
	}
	return h
}
