"""A connection task ends normally however often it is cancelled."""

from __future__ import annotations

import asyncio

from repro.relations.database import Database
from repro.relations.relation import Relation
from repro.server import JoinServer


async def _cancel_a_live_connection_twice() -> tuple[list, asyncio.Task]:
    loop = asyncio.get_running_loop()
    reported: list = []
    loop.set_exception_handler(lambda _loop, context: reported.append(context))
    server = JoinServer(Database([Relation("R", ("A",), [(1,)])]), port=0)
    host, port = await server.start()
    _reader, writer = await asyncio.open_connection(host, port)
    for _ in range(200):
        if server._conn_tasks:
            break
        await asyncio.sleep(0.01)
    (task,) = server._conn_tasks
    # The first cancel ends the read loop; the second lands while the
    # server closes its writer.
    task.cancel()
    await asyncio.sleep(0)
    task.cancel()
    await asyncio.gather(task, return_exceptions=True)
    for _ in range(10):
        await asyncio.sleep(0)
    writer.close()
    await server.stop()
    return reported, task


def test_a_connection_cancelled_twice_ends_normally():
    reported, task = asyncio.run(_cancel_a_live_connection_twice())
    assert reported == []
    assert not task.cancelled()
