"""The stats dataclasses reach the registry through ``publish_stats`` only.

Every test compares the exported counters with the dataclass fields they
were absorbed from: a field the service stopped publishing, or an event
counted on both sides, shows up as an inequality here.
"""

from __future__ import annotations

import asyncio

from repro.obs import registry as obs_registry
from repro.obs.console import parse_prometheus
from repro.obs.http import ObsHttpServer
from repro.server import StorageClient, StorageService

from tests.obs.test_http import get
from tests.server.test_service import make_ssd, payloads


def int_fields(stats) -> dict[str, int]:
    return {
        name: value for name, value in vars(stats).items()
        if isinstance(value, int)
    }


def expected_counters(*services: StorageService) -> dict[str, int]:
    """What the registry must hold once ``services`` have published."""
    totals: dict[str, int] = {}

    def add(prefix: str, fields: dict[str, int]) -> None:
        for name, value in fields.items():
            key = f"{prefix}.{name}"
            totals[key] = totals.get(key, 0) + value

    for service in services:
        add("flash", int_fields(service.ssd.chip.stats))
        add("ftl", int_fields(service.ssd.ftl.stats))
        server = int_fields(service.stats)
        del server["max_batch_size"]  # a maximum is not a counter
        add("server", server)
        for tenant, bucket in service.tenant_stats.items():
            add(f"server.tenant{tenant}", bucket)
    return {key: value for key, value in totals.items() if value}


def published_counters() -> dict[str, float]:
    counters = obs_registry.get_registry().snapshot().counters
    return {
        name: value for name, value in counters.items()
        if name.startswith(("flash.", "ftl.", "faults.", "server."))
    }


async def drive(service: StorageService, writes: int, tenant: int = 0) -> dict:
    """Write ``writes`` pages twice (fresh, then in place); return a STAT."""
    ssd = service.ssd
    async with await StorageClient.connect(
        "127.0.0.1", service.port, tenant=tenant
    ) as client:
        for seed in (0, 1):
            data = payloads(ssd, writes, seed=seed)
            await asyncio.gather(*(
                client.write(lpn, data[lpn]) for lpn in range(writes)
            ))
        await client.read(0)
        return await client.stat()


class TestLiveScrape:
    def test_metrics_equal_the_stats_they_were_absorbed_from(self) -> None:
        registry = obs_registry.get_registry()
        registry.enabled = True

        async def go():
            service = StorageService(make_ssd())
            async with service:
                sidecar = ObsHttpServer(
                    service=service,
                    collectors=(service.publish_stats,),
                )
                async with sidecar:
                    stat = await drive(service, writes=6, tenant=2)
                    _, _, first = await get(sidecar, "/metrics")
                    _, _, second = await get(sidecar, "/metrics")
            return service, stat, first.decode(), second.decode()

        service, stat, first, second = asyncio.run(go())
        scrape = parse_prometheus(first)

        assert stat["ftl"]["host_writes"] == 12
        assert stat["ftl"]["in_place_rewrites"] > 0
        for name, value in stat["ftl"].items():
            assert scrape.value(f"repro_ftl_{name}") == value, name
        for name, value in int_fields(service.ssd.chip.stats).items():
            assert scrape.value(f"repro_flash_{name}") == value, name
        # The STAT payload was built before its own request was counted.
        served = dict(stat["server"])
        served["requests"] += 1
        served["stat_requests"] += 1
        del served["max_batch_size"]
        for name, value in served.items():
            assert scrape.value(f"repro_server_{name}") == value, name
        assert ("repro_server_max_batch_size", ()) not in scrape.scalars
        for name, value in stat["tenants"]["2"].items():
            if name in ("requests", "stat_requests"):
                value += 1
            assert scrape.value(
                f"repro_server_tenant_{name}", tenant="2"
            ) == value, name

        # No traffic between two scrapes: nothing is published twice.
        again = parse_prometheus(second)
        for key, value in scrape.scalars.items():
            if key[0].startswith(
                ("repro_ftl_", "repro_flash_", "repro_server_")
            ) and key[0] != "repro_server_queue_depth":
                assert again.scalars[key] == value, key

        # stop() published what the sidecar had not yet collected.
        assert published_counters() == expected_counters(service)


class TestPublishStats:
    def test_two_services_sum_in_the_registry(self) -> None:
        registry = obs_registry.get_registry()
        registry.enabled = True

        async def go():
            one = StorageService(make_ssd())
            two = StorageService(make_ssd("wom"))
            async with one, two:
                await drive(one, writes=5)
                await drive(two, writes=3, tenant=1)
                one.publish_stats()
                two.publish_stats()
                one.publish_stats()
                midway = published_counters()
                assert midway == expected_counters(one, two)
                await drive(two, writes=2)
            return one, two

        one, two = asyncio.run(go())
        published = published_counters()
        assert published == expected_counters(one, two)
        assert published["ftl.host_writes"] == 10 + 6 + 4

    def test_disabled_registry_defers_instead_of_losing(self) -> None:
        registry = obs_registry.get_registry()

        async def go():
            service = StorageService(make_ssd())
            async with service:
                await drive(service, writes=4)
                service.publish_stats()
                assert registry.snapshot().counters == {}
                registry.enabled = True
                await drive(service, writes=1)
                service.publish_stats()
                assert published_counters() == expected_counters(service)
            return service

        service = asyncio.run(go())
        assert published_counters() == expected_counters(service)
        assert registry.counter("ftl.host_writes").value == 8 + 2
