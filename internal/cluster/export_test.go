package cluster

// MailboxDepth exposes the per-pair channel bound to the external tests.
const MailboxDepth = mailboxDepth
