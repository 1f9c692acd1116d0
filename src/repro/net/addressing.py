"""Network addressing.

Addresses are plain integers equal to node ids (the mesh has one interface
per node and no address resolution — the standard simulator shortcut, which
ns-2 also takes for MANET stacks).
"""

from __future__ import annotations

__all__ = ["NodeAddress", "BROADCAST_ADDR"]

#: Type alias for readability in signatures.
NodeAddress = int

#: Network-layer broadcast address.
BROADCAST_ADDR: NodeAddress = -1

