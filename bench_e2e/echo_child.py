"""Raw length-prefixed asyncio echo server — the wire floor.

No Khazana code at all: ``<u32 length><body>`` frames over an asyncio
stream, echoed back.  ``net.tcp.echo_rtt_us`` (one frame there and back,
from a client written the same way) is what this machine's loop + socket
cost before any of the program's layers run.  Prints ``READY`` once
listening; exits when its stdin closes.
"""

from __future__ import annotations

import asyncio
import struct
import sys

PREFIX = struct.Struct("<I")


async def serve(port: int) -> None:
    async def echo(reader: asyncio.StreamReader,
                   writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                prefix = await reader.readexactly(PREFIX.size)
                body = await reader.readexactly(PREFIX.unpack(prefix)[0])
                writer.write(prefix + body)
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(echo, "127.0.0.1", port)
    print("READY", flush=True)
    loop = asyncio.get_running_loop()
    async with server:
        # The parent holds stdin open; EOF means it is gone.
        await loop.run_in_executor(None, sys.stdin.buffer.read)


if __name__ == "__main__":
    asyncio.run(serve(int(sys.argv[1])))
