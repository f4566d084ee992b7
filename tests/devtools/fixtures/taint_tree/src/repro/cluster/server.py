"""Clean: a view reads the state and calls the owner's methods."""


class Server:
    def __init__(self, mirror, server_id):
        self.mirror = mirror
        self.server_id = server_id

    def headroom(self):
        return self.mirror.avail_cpu[self.server_id]

    def allocate(self, demand):
        self.mirror.update(self.server_id, demand.cpu, demand.mem)
