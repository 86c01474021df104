package overlay

// Syscall numbers for mmsg_linux.go on linux/arm64 (the generic
// table).
const (
	sysRecvmmsg = 243
	sysSendmmsg = 269
)
