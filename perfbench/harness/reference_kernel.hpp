/**
 * @file
 * A fixed reference computation that measures how fast the host runs
 * right now.
 *
 * Shared virtual machines drift: the same simulated day can take 6 s one
 * minute and 9 s ten minutes later, with no steal time reported, because
 * neighbours compete for caches and memory bandwidth. The benchmark times
 * this kernel just before and just after each workload process and
 * scales that process's host times by nominal / measured. The kernel is the
 * benchmark's own code and calls nothing of the simulator, so a change to
 * the simulator cannot move it; only the machine can.
 */

#ifndef PERFBENCH_REFERENCE_KERNEL_HPP
#define PERFBENCH_REFERENCE_KERNEL_HPP

namespace perfbench {

/**
 * Seconds taken by one fixed run of the kernel: a dependent pointer chase
 * over a 4 MiB random cycle followed by a binary-heap push/pop sequence
 * (branchy integer work), the two costs the simulator's event queue and
 * fleet walks are made of. 4 MiB sits in a core's private cache, which
 * is what a neighbour on the same physical core takes away: on a shared
 * 4-vCPU Xeon VM, fleet_day's run time tracked this chase to within 7%
 * (IQR / median of the ratio over twelve runs) while raw times spread by
 * 30%, where a 64 MiB chase tracked it to within 23%. Building the cycle
 * is not timed.
 */
double referenceKernelSeconds();

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_KERNEL_HPP
