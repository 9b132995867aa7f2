/**
 * @file
 * Heap allocations of a per-host idle hierarchy: once its spec is shared,
 * building one is a single allocation (the object itself) and attaching
 * it to a host allocates nothing.
 *
 * This file is its own test binary because it counts allocations by
 * replacing the global operator new, which must not reach other tests.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "datacenter/cluster.hpp"
#include "power/idle_hierarchy.hpp"
#include "power/server_models.hpp"

namespace {

std::atomic<long> allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace vpm {
namespace {

long
allocationCount()
{
    return allocations.load(std::memory_order_relaxed);
}

TEST(SharedSpecAllocationTest, HierarchyOfASharedSpecIsOneAllocation)
{
    sim::Simulator simulator;
    const power::IdleHierarchySpec spec = power::modernIdleHierarchy();
    // The first hierarchy of a spec makes the shared copy.
    const auto first =
        std::make_unique<power::IdleHierarchy>(simulator, spec);

    const long before = allocationCount();
    const auto second =
        std::make_unique<power::IdleHierarchy>(simulator, spec);
    EXPECT_EQ(allocationCount() - before, 1);
    EXPECT_EQ(&second->spec(), &first->spec());
}

TEST(SharedSpecAllocationTest, AttachingAHierarchyAllocatesNothing)
{
    sim::Simulator simulator;
    dc::Cluster cluster(simulator);
    const power::HostPowerSpec power_spec = power::enterpriseBlade2013();
    dc::Host &host = cluster.addHost(dc::HostConfig{}, power_spec);
    auto hier = std::make_unique<power::IdleHierarchy>(
        simulator, power::modernIdleHierarchy());

    const long before = allocationCount();
    host.attachIdleHierarchy(std::move(hier));
    EXPECT_EQ(allocationCount() - before, 0);
}

} // namespace
} // namespace vpm
