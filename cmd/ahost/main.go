// ahost manages the server's host access list (§8.5), the rudimentary
// privacy and security control: which machines may connect.
//
//	ahost [-a server]               # list access state
//	ahost [-a server] +10.1.2.3     # allow a host
//	ahost [-a server] -10.1.2.3     # disallow a host
//	ahost [-a server] on|off        # enable/disable access control
package main

import (
	"flag"
	"fmt"
	"net"

	"audiofile/af"
	"audiofile/internal/cmdutil"
)

func main() {
	server := cmdutil.ServerFlag("AudioFile server")
	flag.Parse()

	conn := cmdutil.OpenServer(*server)
	defer conn.Close()

	for _, arg := range flag.Args() {
		switch {
		case arg == "on":
			if err := conn.SetAccessControl(true); err != nil {
				cmdutil.Die("ahost: %v", err)
			}
		case arg == "off":
			if err := conn.SetAccessControl(false); err != nil {
				cmdutil.Die("ahost: %v", err)
			}
		case arg[0] == '+' || arg[0] == '-':
			h, err := parseHost(arg[1:])
			if err != nil {
				cmdutil.Die("ahost: %v", err)
			}
			if arg[0] == '+' {
				err = conn.AddHost(h)
			} else {
				err = conn.RemoveHost(h)
			}
			if err != nil {
				cmdutil.Die("ahost: %v", err)
			}
		default:
			cmdutil.Die("ahost: unknown argument %q", arg)
		}
	}
	if err := conn.Sync(); err != nil {
		cmdutil.Die("ahost: %v", err)
	}

	enabled, hosts, err := conn.ListHosts()
	if err != nil {
		cmdutil.Die("ahost: %v", err)
	}
	if enabled {
		fmt.Println("access control enabled; only these hosts may connect:")
	} else {
		fmt.Println("access control disabled; any host may connect (list when enabled):")
	}
	for _, h := range hosts {
		switch h.Family {
		case af.FamilyInternet, af.FamilyInternet6:
			fmt.Printf("  %s\n", net.IP(h.Addr))
		case af.FamilyLocal:
			fmt.Printf("  local:%s\n", h.Addr)
		default:
			fmt.Printf("  family %d: %x\n", h.Family, h.Addr)
		}
	}
}

func parseHost(s string) (af.HostEntry, error) {
	ip := net.ParseIP(s)
	if ip == nil {
		// Resolve a hostname.
		ips, err := net.LookupIP(s)
		if err != nil || len(ips) == 0 {
			return af.HostEntry{}, fmt.Errorf("can't resolve %q", s)
		}
		ip = ips[0]
	}
	if v4 := ip.To4(); v4 != nil {
		return af.HostEntry{Family: af.FamilyInternet, Addr: v4}, nil
	}
	return af.HostEntry{Family: af.FamilyInternet6, Addr: ip}, nil
}
