// aurora::heal — shared helpers of the self-healing target lifecycle.
//
// The recovery machinery itself lives in the runtime (state machine, replay)
// and the backends (quiesce/respawn); this header holds the pieces both sides
// of the wire share: epoch-reject accounting. Whenever slot_protocol, on the
// host or the target side, meets a flag stamped with another incarnation's
// epoch, the message is dropped and counted here — the observable proof that
// stale retransmits and replies cannot cross an incarnation boundary.
#pragma once

#include "offload/types.hpp"

namespace ham::offload::heal {

/// Count one message dropped because its flag carried a stale target epoch.
/// Rare event (only ever after a recovery), so the mutexed metrics lookup is
/// fine. Safe from both host and simulated target processes — the registry is
/// process-wide and the cooperative scheduler serialises access.
void note_epoch_reject(const char* backend_name, node_t node);

} // namespace ham::offload::heal
