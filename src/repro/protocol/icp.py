"""Internet Cache Protocol (ICP) v2 messages.

Implements the RFC 2186 wire format the paper's caches use to locate
documents at siblings/parents: a 20-byte header followed by an
opcode-specific payload. Only the subset cooperative caching needs is
modelled (QUERY / HIT / MISS / MISS_NOFETCH / ERR plus the echo opcodes for
completeness), but encode/decode handle the full header faithfully so the
byte accounting in the network model is realistic.

The simulator exchanges :class:`ICPMessage` objects; :func:`encode` /
:func:`decode` provide the binary round-trip (exercised by tests and used
for on-the-wire byte counts).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ProtocolError

#: ICP protocol version implemented (RFC 2186).
ICP_VERSION = 2

#: struct layout of the 20-byte ICP header:
#: opcode(B) version(B) length(H) reqnum(I) options(I) optdata(I) sender(4s)
_HEADER = struct.Struct("!BBHIII4s")


class ICPOpcode(enum.IntEnum):
    """ICP opcodes (RFC 2186 section 6.1)."""

    INVALID = 0
    QUERY = 1
    HIT = 2
    MISS = 3
    ERR = 4
    SECHO = 10
    DECHO = 11
    MISS_NOFETCH = 21
    DENIED = 22
    HIT_OBJ = 23


#: Opcodes whose payload carries a leading 4-byte requester-host field
#: (only QUERY per RFC 2186).
_HAS_REQUESTER_FIELD = frozenset({ICPOpcode.QUERY})


#: Datagram bytes of a QUERY / of a HIT-MISS reply beyond the URL's own
#: UTF-8 bytes: the header and the NUL terminator, plus the QUERY's
#: requester field. Engines that already hold URL byte lengths (the
#: interned columns) account probe bytes from these without the string.
QUERY_OVERHEAD = _HEADER.size + 4 + 1
REPLY_OVERHEAD = _HEADER.size + 1


def _utf8_length(text: str) -> int:
    """Byte length of ``text`` encoded as UTF-8, without materialising it."""
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def query_wire_length(url: str) -> int:
    """Datagram length of an ICP QUERY for ``url``.

    Equals ``encode(query(...))``'s length: header + requester field +
    NUL-terminated URL. The simulator's probe fast path uses this to account
    wire bytes without building the datagram.
    """
    return QUERY_OVERHEAD + _utf8_length(url)


def reply_wire_length(url: str) -> int:
    """Datagram length of an ICP HIT/MISS reply for ``url``."""
    return REPLY_OVERHEAD + _utf8_length(url)


@dataclass(frozen=True)
class ICPMessage:
    """One ICP datagram.

    Attributes:
        opcode: Message type.
        request_number: Correlates replies with the originating query.
        url: The document being located (NUL-terminated on the wire).
        sender: 4-byte host address of the sending cache (opaque here; the
            simulator packs cache indices).
        requester: For QUERY messages, the original requester host field.
        options: RFC 2186 option flags (unused by this simulator, carried
            for fidelity).
        option_data: Option payload (e.g. SRC_RTT data).
    """

    opcode: ICPOpcode
    request_number: int
    url: str
    sender: bytes = b"\x00\x00\x00\x00"
    requester: bytes = b"\x00\x00\x00\x00"
    options: int = 0
    option_data: int = 0

    def __post_init__(self) -> None:
        if len(self.sender) != 4 or len(self.requester) != 4:
            raise ProtocolError("ICP host address fields must be exactly 4 bytes")
        if not 0 <= self.request_number <= 0xFFFFFFFF:
            raise ProtocolError("request_number must fit in 32 bits")

    @property
    def is_reply(self) -> bool:
        """Whether this message answers a query."""
        return self.opcode in (
            ICPOpcode.HIT,
            ICPOpcode.MISS,
            ICPOpcode.MISS_NOFETCH,
            ICPOpcode.HIT_OBJ,
            ICPOpcode.DENIED,
            ICPOpcode.ERR,
        )

    @property
    def is_positive(self) -> bool:
        """Whether this reply reports the document as present."""
        return self.opcode in (ICPOpcode.HIT, ICPOpcode.HIT_OBJ)

    @property
    def wire_length(self) -> int:
        """Exact datagram length in bytes (header + payload)."""
        payload = _utf8_length(self.url) + 1
        if self.opcode in _HAS_REQUESTER_FIELD:
            payload += 4
        return _HEADER.size + payload


def query(request_number: int, url: str, sender: bytes, requester: Optional[bytes] = None) -> ICPMessage:
    """Build an ICP_OP_QUERY for ``url``."""
    return ICPMessage(
        opcode=ICPOpcode.QUERY,
        request_number=request_number,
        url=url,
        sender=sender,
        requester=requester if requester is not None else sender,
    )


def reply(original: ICPMessage, hit: bool, sender: bytes) -> ICPMessage:
    """Build the HIT/MISS answer to ``original`` from cache ``sender``."""
    if original.opcode is not ICPOpcode.QUERY:
        raise ProtocolError(f"cannot reply to a non-query opcode {original.opcode!r}")
    return ICPMessage(
        opcode=ICPOpcode.HIT if hit else ICPOpcode.MISS,
        request_number=original.request_number,
        url=original.url,
        sender=sender,
    )


def encode(message: ICPMessage) -> bytes:
    """Serialise ``message`` to its RFC 2186 datagram bytes."""
    url_bytes = message.url.encode("utf-8") + b"\x00"
    payload = url_bytes
    if message.opcode in _HAS_REQUESTER_FIELD:
        payload = message.requester + url_bytes
    length = _HEADER.size + len(payload)
    if length > 0xFFFF:
        raise ProtocolError(f"ICP datagram too large ({length} bytes): URL too long")
    header = _HEADER.pack(
        int(message.opcode),
        ICP_VERSION,
        length,
        message.request_number,
        message.options,
        message.option_data,
        message.sender,
    )
    return header + payload


def decode(data: bytes) -> ICPMessage:
    """Parse datagram bytes back into an :class:`ICPMessage`.

    Raises:
        ProtocolError: on truncated data, bad version, unknown opcode, or a
            length field that disagrees with the actual datagram size.
    """
    if len(data) < _HEADER.size:
        raise ProtocolError(f"ICP datagram truncated: {len(data)} bytes < header size")
    opcode_raw, version, length, reqnum, options, option_data, sender = _HEADER.unpack_from(data)
    if version != ICP_VERSION:
        raise ProtocolError(f"unsupported ICP version {version}")
    try:
        opcode = ICPOpcode(opcode_raw)
    except ValueError:
        raise ProtocolError(f"unknown ICP opcode {opcode_raw}") from None
    if length != len(data):
        raise ProtocolError(
            f"ICP length field {length} disagrees with datagram size {len(data)}"
        )
    payload = data[_HEADER.size:]
    requester = b"\x00\x00\x00\x00"
    if opcode in _HAS_REQUESTER_FIELD:
        if len(payload) < 5:
            raise ProtocolError("ICP query payload truncated")
        requester, payload = payload[:4], payload[4:]
    if not payload.endswith(b"\x00"):
        raise ProtocolError("ICP URL payload missing NUL terminator")
    url = payload[:-1].decode("utf-8")
    return ICPMessage(
        opcode=opcode,
        request_number=reqnum,
        url=url,
        sender=sender,
        requester=requester,
        options=options,
        option_data=option_data,
    )


def pack_cache_address(index: int) -> bytes:
    """Encode a simulator cache index as a 4-byte ICP host address."""
    if not 0 <= index <= 0xFFFFFFFF:
        raise ProtocolError(f"cache index {index} does not fit in 4 bytes")
    return struct.pack("!I", index)


def unpack_cache_address(address: bytes) -> int:
    """Inverse of :func:`pack_cache_address`."""
    if len(address) != 4:
        raise ProtocolError("cache address must be exactly 4 bytes")
    return struct.unpack("!I", address)[0]
