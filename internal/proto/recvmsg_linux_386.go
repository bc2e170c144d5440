package proto

const sysRecvmsg = 372 // recvmsg(2), which 386's package syscall names only as a socketcall
