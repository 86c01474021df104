package overlay

// Syscall numbers for mmsg_linux.go on linux/amd64.
const (
	sysRecvmmsg = 299
	sysSendmmsg = 307
)
