// Command maxrss runs a command, then prints on stderr the peak RSS of it and
// of every descendant it waited for (ru_maxrss from wait4, so the binaries
// `go test` starts count too), and exits non-zero if the command did.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: go run ./scripts/maxrss command [arg...]")
		os.Exit(2)
	}
	cmd := exec.Command(os.Args[1], os.Args[2:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	err := cmd.Run()
	if cmd.ProcessState != nil { // nil when the command did not start
		ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		fmt.Fprintf(os.Stderr, "maxrss: %d MiB peak RSS: %s\n", ru.Maxrss/1024, strings.Join(os.Args[1:], " "))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "maxrss:", err)
		os.Exit(1)
	}
}
