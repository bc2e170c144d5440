//go:build !386

package proto

import "syscall"

const sysRecvmsg = syscall.SYS_RECVMSG // 386 has its own: recvmsg_linux_386.go
