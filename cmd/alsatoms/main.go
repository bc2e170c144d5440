// alsatoms displays the atoms defined by the server (§8.5): the built-in
// atoms of Table 2 plus anything clients have interned.
//
//	alsatoms [-a server]
package main

import (
	"flag"
	"fmt"

	"audiofile/af"
	"audiofile/cmd/internal/cmdutil"
)

func main() {
	server := cmdutil.ServerFlag("AudioFile server")
	flag.Parse()

	conn := cmdutil.OpenServer(*server)
	defer conn.Close()
	// Silence async error output: probing past the last atom is expected.
	conn.SetErrorHandler(func(*af.Conn, *af.ProtoError) {})

	for id := af.Atom(1); ; id++ {
		name, err := conn.GetAtomName(id)
		if err != nil {
			break // first unknown id: done
		}
		fmt.Printf("%d\t%s\n", id, name)
	}
}
